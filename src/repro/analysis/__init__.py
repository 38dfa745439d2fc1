"""Post-processing: burstiness, fairness, and terminal rendering.

Implements the quantities the paper's claims are phrased in -- "prevents
I/O burstiness" (coefficient of variation), "ensures I/O
fairness" (Jain's index), completion times -- plus ASCII sparkline/plot
rendering so every experiment harness can print its figure in a terminal.
Jain's index lives in :mod:`repro.analysis.fairness`, imported from there:
no program module uses it, so the package does not load it for them.
"""

from repro import lazy_exports

_EXPORTS = {
    "ascii_plot": "repro.analysis.plots",
    "coefficient_of_variation": "repro.analysis.burstiness",
    "export_wide": "repro.analysis.export",
    "sparkline": "repro.analysis.plots",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
