"""Post-processing: burstiness, fairness, and terminal rendering.

Implements the quantities the paper's claims are phrased in -- "prevents
I/O burstiness" (coefficient of variation), "ensures I/O
fairness" (Jain's index), completion times -- plus ASCII sparkline/plot
rendering so every experiment harness can print its figure in a terminal.
Jain's index lives in :mod:`repro.analysis.fairness`, imported from there:
no program module uses it, so the package does not load it for them.
"""

from repro.analysis.burstiness import coefficient_of_variation
from repro.analysis.export import export_wide
from repro.analysis.plots import ascii_plot, sparkline

__all__ = [
    "ascii_plot",
    "coefficient_of_variation",
    "export_wide",
    "sparkline",
]
