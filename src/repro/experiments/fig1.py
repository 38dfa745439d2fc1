"""EXP-F1 -- Fig. 1: throughput of metadata operations in PFS_A.

Regenerates the 30-day aggregate throughput series from the synthetic
PFS_A trace and reports the statistics the paper quotes: ≈200 KOps/s
average, sustained episodes above 400 KOps/s, bursts peaking ≈1 MOps/s,
and volatility (dips at or below 50 KOps/s adjacent to spikes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.plots import ascii_plot
from repro.workloads.abci import generate_aggregate_trace
from repro.workloads.trace import OpTrace

__all__ = ["Fig1Result", "run_fig1", "main"]


@dataclass(frozen=True, slots=True)
class Fig1Result:
    """The regenerated Fig. 1 series plus its headline statistics."""

    trace: OpTrace
    times_hours: np.ndarray
    rates: np.ndarray
    mean_rate: float
    peak_rate: float
    min_rate: float
    fraction_above_400k: float
    fraction_below_50k: float
    #: Longest continuous episode above 400 KOps/s, in hours.
    longest_sustained_hours: float

    def paper_rows(self) -> list[tuple[str, str, str]]:
        """(metric, paper value, measured value) rows."""
        return [
            ("mean rate (KOps/s)", "~200", f"{self.mean_rate / 1e3:.1f}"),
            ("peak rate (MOps/s)", "~1.0", f"{self.peak_rate / 1e6:.2f}"),
            ("sustained >400 KOps/s", "hours to days", f"{self.longest_sustained_hours:.1f} h"),
            ("dips <=50 KOps/s", "frequent", f"{self.fraction_below_50k * 100:.1f}% of samples"),
        ]


def _longest_run_hours(mask: np.ndarray, sample_period: float) -> float:
    """Longest run of consecutive True samples, converted to hours."""
    if not mask.any():
        return 0.0
    # Runs via diff of padded cumulative indices (vectorised).
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    lengths = edges[1::2] - edges[0::2]
    return float(lengths.max()) * sample_period / 3600.0


def run_fig1(seed: int = 0, duration: float = 30 * 24 * 3600.0) -> Fig1Result:
    """Generate the trace and compute the Fig. 1 statistics."""
    trace = generate_aggregate_trace(seed=seed, duration=duration)
    rates = trace.rates()
    times_hours = trace.times() / 3600.0
    # "Sustained" episodes are judged on a 30-minute rolling mean, the way
    # one reads the figure -- single noisy samples dipping under the line
    # do not end an episode.
    window = max(1, min(30, rates.size))
    smoothed = np.convolve(rates, np.ones(window) / window, mode="same")
    above = smoothed > 400e3
    return Fig1Result(
        trace=trace,
        times_hours=times_hours,
        rates=rates,
        mean_rate=float(rates.mean()),
        peak_rate=float(rates.max()),
        min_rate=float(rates.min()),
        fraction_above_400k=float(above.mean()),
        fraction_below_50k=float((rates <= 50e3).mean()),
        longest_sustained_hours=_longest_run_hours(above, trace.sample_period),
    )


def main(seed: int = 0) -> Fig1Result:
    result = run_fig1(seed=seed)
    print(
        ascii_plot(
            {"metadata ops": result.rates},
            title="Fig. 1: throughput of metadata operations in PFS_A (ops/s over 30 days)",
        )
    )
    print(f"{'metric':<28} {'paper':<16} measured")
    for metric, paper, measured in result.paper_rows():
        print(f"{metric:<28} {paper:<16} {measured}")
    return result


if __name__ == "__main__":
    main()
