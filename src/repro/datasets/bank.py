"""Synthetic Credit Card Customers ("Bank") dataset (paper §4.1, dataset 2).

Mirrors the Kaggle dataset's schema (10 127 rows × 21 columns) and the
behaviour the evaluation needs (DESIGN.md §2):

* ~16% of customers are "Attrited Customer" (rest "Existing Customer").
* **planted churn drivers** (the §4.2 task "why do people leave?"):
  attrited customers have more inactive months, fewer transactions, more
  support contacts, and lower revolving balances — so query 11's filter on
  ``Attrition_Flag != 'Existing Customer'`` shifts exactly those columns.
* 'Income_Category' and 'Card_Category' are skewed categoricals
  (moderate Fisher-Pearson skew, §4.1: top-1 ≈ 2.06 for this dataset).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

_EDU = ["High School", "Graduate", "Uneducated", "College", "Post-Graduate", "Doctorate", "Unknown"]
_EDU_W = [0.20, 0.31, 0.15, 0.10, 0.05, 0.045, 0.145]
_INCOME = ["Less than $40K", "$40K - $60K", "$60K - $80K", "$80K - $120K", "$120K +", "Unknown"]
_INCOME_W = [0.35, 0.18, 0.14, 0.15, 0.07, 0.11]
_CARD = ["Blue", "Silver", "Gold", "Platinum"]
_CARD_W = [0.93, 0.055, 0.011, 0.004]
_MARITAL = ["Married", "Single", "Divorced", "Unknown"]
_MARITAL_W = [0.46, 0.39, 0.07, 0.08]


def bank_pdf(n_rows: int = 2000, seed: int = 7) -> pd.DataFrame:
    g = np.random.default_rng(seed)
    attrited = g.random(n_rows) < 0.161
    age = np.clip(g.normal(46, 8, n_rows), 26, 73).round(0).astype("int64")
    credit_limit = np.exp(g.normal(8.6, 0.9, n_rows)).round(0) + 1400
    revolving = np.where(
        attrited,
        g.random(n_rows) * 900,  # churners carry less revolving balance
        g.random(n_rows) * 2500,
    ).round(0)
    trans_ct = np.where(
        attrited,
        g.normal(45, 12, n_rows),  # planted: churners transact less
        g.normal(70, 20, n_rows),
    )
    trans_ct = np.clip(trans_ct, 10, 140).round(0).astype("int64")
    return pd.DataFrame(
        {
            "CLIENTNUM": np.arange(700_000_000, 700_000_000 + n_rows),
            "Attrition_Flag": np.where(
                attrited, "Attrited Customer", "Existing Customer"
            ),
            "Customer_Age": age,
            "Gender": g.choice(["F", "M"], n_rows, p=[0.53, 0.47]),
            "Dependent_count": g.integers(0, 6, n_rows),
            "Education_Level": g.choice(_EDU, n_rows, p=np.array(_EDU_W) / sum(_EDU_W)),
            "Marital_Status": g.choice(
                _MARITAL, n_rows, p=np.array(_MARITAL_W) / sum(_MARITAL_W)
            ),
            "Income_Category": g.choice(
                _INCOME, n_rows, p=np.array(_INCOME_W) / sum(_INCOME_W)
            ),
            "Card_Category": g.choice(_CARD, n_rows, p=np.array(_CARD_W) / sum(_CARD_W)),
            "Months_on_book": np.clip(g.normal(36, 8, n_rows), 13, 56).round(0),
            "Registered_Products_Count": g.integers(1, 7, n_rows),
            "Months_Inactive_Count_Last_Year": np.clip(
                # planted: churners were inactive longer
                np.where(attrited, g.normal(3.2, 1.0, n_rows), g.normal(2.1, 1.0, n_rows)),
                0,
                6,
            ).round(0).astype("int64"),
            "Contacts_Count_12_mon": np.clip(
                np.where(attrited, g.normal(3.5, 1.1, n_rows), g.normal(2.3, 1.1, n_rows)),
                0,
                6,
            ).round(0).astype("int64"),
            "Credit_Limit": credit_limit,
            "Total_Revolving_Bal": revolving,
            "Avg_Open_To_Buy": (credit_limit - revolving).round(0),
            "Total_Count_Change_Q4_vs_Q1": np.clip(
                np.where(
                    attrited, g.normal(0.55, 0.18, n_rows), g.normal(0.72, 0.2, n_rows)
                ),
                0,
                3.8,
            ).round(3),
            "Total_Transitions_Amount": np.where(
                attrited,
                np.exp(g.normal(7.9, 0.5, n_rows)),
                np.exp(g.normal(8.4, 0.6, n_rows)),
            ).round(0),
            "Total_Trans_Ct": trans_ct,
            "Total_Amt_Chng_Q4_Q1": np.clip(g.normal(0.76, 0.22, n_rows), 0, 3.4).round(3),
            "Credit_Used": np.clip(revolving / credit_limit, 0, 1).round(3),
        }
    )
