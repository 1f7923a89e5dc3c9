"""Persistence helpers: save experiment results as JSON."""

from .results import figure_to_dict

__all__ = ["figure_to_dict"]
