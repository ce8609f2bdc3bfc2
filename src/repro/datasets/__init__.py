"""Synthetic evaluation datasets (paper §4.1 substitutes, DESIGN.md §2)."""
from repro.datasets.bank import bank_pdf
from repro.datasets.products import sales_pdf
from repro.datasets.spotify import spotify_pdf

__all__ = ["bank_pdf", "sales_pdf", "spotify_pdf"]
