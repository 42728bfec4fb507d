"""Experiment grid (§5's instances), scaled to the local 3-hour budget.

Profiles:
* ``test``  — minutes; used by the integration tests.
* ``quick`` — the default EXPERIMENTS.md run (tens of minutes on 16 cores).

The paper runs T = 1000 trials (20 on ★ large instances), sample numbers up
to 2¹⁶ (Oneshot/Snapshot) and 2²⁴ (RIS), and a 10⁷-RR-set oracle; the
scaled-down grids below keep every qualitative comparison (see DESIGN.md
§4). ★ instances run Snapshot and RIS only, as in the paper.
"""
from dataclasses import dataclass, field


def pow2(lo: int, hi: int) -> list[int]:
    return [2**i for i in range(lo, hi + 1)]


@dataclass(frozen=True)
class Sweep:
    network: str
    setting: str
    k: int
    trials: int
    grids: dict[str, list[int]] = field(hash=False)
    oracle_theta: int = 1 << 17


def _small(network, setting, k, trials, on_hi, ris_hi, theta=1 << 17):
    return Sweep(
        network, setting, k, trials,
        {
            "oneshot": pow2(0, on_hi),
            "snapshot": pow2(0, on_hi),
            "ris": pow2(0, ris_hi),
        },
        theta,
    )


def _large(network, setting, k, trials, snap_hi, ris_hi, theta=1 << 16):
    return Sweep(
        network, setting, k, trials,
        {"snapshot": pow2(0, snap_hi), "ris": pow2(0, ris_hi)},
        theta,
    )


def sweeps(profile: str = "quick") -> list[Sweep]:
    if profile == "test":
        return [
            _small("Karate", "UC_0.1", 1, 20, 4, 8, theta=1 << 12),
            _small("Karate", "IWC", 1, 20, 4, 8, theta=1 << 12),
        ]
    if profile != "quick":
        raise ValueError(f"unknown profile {profile!r}")
    out: list[Sweep] = []
    # Karate: all four settings, k ∈ {1, 4} (paper Table 5 block).
    for setting in ("UC_0.1", "UC_0.01", "IWC", "OWC"):
        for k in (1, 4):
            out.append(_small("Karate", setting, k, 200, 11, 16))
    # Physicians substitute.
    for setting in ("UC_0.01", "OWC"):
        out.append(_small("Physicians_syn", setting, 1, 100, 11, 16))
    out.append(_small("Physicians_syn", "IWC", 4, 100, 10, 15))
    # BA networks (exact model).
    for setting in ("UC_0.1", "UC_0.01", "IWC", "OWC"):
        out.append(_small("BA_s", setting, 1, 100, 10, 16))
    # k=16 is the naive-implementation worst case (the paper's own k=1024
    # cells "took over weeks"); the interesting range is tiny (paper's
    # β* = 2⁶, τ* = 2⁴), so a short grid with fewer trials suffices.
    out.append(_small("BA_s", "IWC", 16, 30, 7, 13))
    for setting in ("UC_0.01", "IWC"):
        out.append(_small("BA_d", setting, 1, 100, 10, 15))
    # Substitutes for ca-GrQc / Wiki-Vote (k = 1 only; Oneshot capped lower
    # because a single UC_0.1 scan touches ~m·maxInf edges).
    for setting in ("UC_0.1", "UC_0.01", "OWC"):
        out.append(_small("GrQc_syn", setting, 1, 40, 7, 14))
    for setting in ("UC_0.01", "IWC"):
        out.append(_small("WikiVote_syn", setting, 1, 40, 7, 14))
    # ★ large substitutes: Snapshot + RIS only, T = 20 (paper's ★ rows).
    for setting in ("UC_0.01", "IWC"):
        out.append(_large("youtube_lite", setting, 1, 20, 5, 15))
        out.append(_large("pokec_lite", setting, 1, 20, 5, 15))
    return out


def profile_theta(profile: str) -> int:
    """Table 4's RR sets per oracle: 2¹⁴ under ``test``, else 2¹⁸."""
    return 1 << (14 if profile == "test" else 18)


# Table 8 instance list: (network, setting, T, include_oneshot).
def traversal_instances(profile: str = "quick"):
    if profile == "test":
        return [("Karate", "UC_0.1", 50, True)]
    rows = []
    small = [
        "Karate", "Physicians_syn", "GrQc_syn", "WikiVote_syn", "BA_s", "BA_d",
    ]
    for net in small:
        for setting in ("UC_0.1", "UC_0.01", "IWC", "OWC"):
            # Paper leaves Wiki-Vote UC_0.1 blank (giant component too hot).
            if net == "WikiVote_syn" and setting == "UC_0.1":
                continue
            trials = 200 if net in ("Karate", "Physicians_syn", "BA_s") else 50
            rows.append((net, setting, trials, True))
    for net in ("youtube_lite", "pokec_lite"):
        for setting in ("UC_0.01", "IWC", "OWC"):
            rows.append((net, setting, 5, False))
    return rows
