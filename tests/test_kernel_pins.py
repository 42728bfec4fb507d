"""Pinned kernel outputs for fixed seeds (driver only, no Spark).

Every output below is fixed by the graph, the seed and the coin order of
the frontier BFS: one ``rng.random`` per BFS level, over the examined edges
in CSR order. A kernel rewrite must reproduce each pin exactly — the
SHA-256 of the output arrays and the paper's vertex and edge costs (§3.2,
§3.5.2). Graphs are built with pandas so the CSR edge order does not
depend on how Spark partitions a collect.
"""
import hashlib

import numpy as np
import pytest

from repro.algorithms import make_estimator, run_greedy
from repro.algorithms.snapshot import SnapshotEstimator
from repro.graphs.csr import from_pandas
from repro.graphs.networks import build_network_pandas
from repro.ic.forward import simulate_single_seeds
from repro.ic.rr import rr_sets

INSTANCES = [
    ("Karate", "UC_0.1"),
    ("BA_s", "IWC"),
    ("BA_d", "UC_0.1"),
    ("GrQc_syn", "UC_0.01"),
    ("Physicians_syn", "OWC"),
]
BETA, TAU, THETA = 4, 8, 2000
GREEDY = {"oneshot": (2, 2), "snapshot": (8, 2), "ris": (2000, 3)}


def influence_graph(network: str, setting: str):
    """The influence graph of ``assign_probabilities``, built in pandas."""
    pdf = build_network_pandas(network)
    if setting.startswith("UC_"):
        pdf["p"] = float(setting[3:])
    else:
        end = "dst" if setting == "IWC" else "src"
        pdf["p"] = 1.0 / pdf.groupby(end)[end].transform("size")
    return from_pandas(pdf)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(a.astype(a.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()[:16]


def kernel_outputs(g) -> dict[str, tuple[str, int, int]]:
    """name → (digest of the output arrays, vertex cost, edge cost)."""
    out = {}
    cand = np.arange(g.n, dtype=np.int64)
    base = np.array([0, g.n // 2], dtype=np.int64)
    for name, seeds in (("forward", None), ("forward_base", base)):
        r = simulate_single_seeds(
            g, cand, BETA, np.random.default_rng(11), base_seeds=seeds
        )
        out[name] = (digest(r.activated), r.vertex_cost, r.edge_cost)
    est = SnapshotEstimator(g, TAU, np.random.default_rng(12))
    out["snapshot_build"] = (
        digest(est.live.indptr, est.live.dst % g.n),
        est.sample_size, 0,
    )
    for name, seeds in (("snapshot", cand[:0]), ("snapshot_base", base)):
        vals = est.estimate_all(seeds)
        out[name] = (digest(vals), est.vertex_cost, est.edge_cost)
    r = rr_sets(g, THETA, np.random.default_rng(13))
    out["rr"] = (
        digest(r.rr_id, r.vertex, r.sizes, r.weights),
        r.vertex_cost, r.edge_cost,
    )
    for alg, (sample_number, k) in GREEDY.items():
        rng = np.random.default_rng(14)
        est = make_estimator(alg, g, sample_number, rng)
        res = run_greedy(est, g.n, k, rng)
        out[f"greedy_{alg}"] = (
            digest(res.seeds, res.chosen_estimates, [res.sample_size]),
            res.vertex_cost, res.edge_cost,
        )
    return out


# Each pin is (digest, vertex cost, edge cost); ``snapshot_build`` pins the
# sampled layers and the sample size, and the Snapshot costs accumulate.
PINS = {
    ("Karate", "UC_0.1"): {
        "forward": ("ee3ebf59469e5d23", 285, 1641),
        "forward_base": ("24f91bbd02fc36a8", 774, 5099),
        "snapshot_build": ("7847da2794d64f8f", 136, 0),
        "snapshot": ("670bab59ac47cd8d", 691, 506),
        "snapshot_base": ("8513df854f25d07c", 2769, 2158),
        "rr": ("aefae9a30c4b21c4", 3952, 22237),
        "greedy_oneshot": ("15184a713191e627", 357, 1764),
        "greedy_snapshot": ("d0c8422895ab4839", 1887, 1288),
        "greedy_ris": ("b749834888b5d6dc", 3970, 22198),
    },
    ("BA_s", "IWC"): {
        "forward": ("69a95bbfcb7c3ee8", 9454, 7736),
        "forward_base": ("815fd6050cd68898", 33285, 23580),
        "snapshot_build": ("53790acab227a259", 5193, 0),
        "snapshot": ("1dcf538b8ed465ab", 18940, 10940),
        "snapshot_base": ("45a5e33ee9f169c4", 85694, 53768),
        "rr": ("3304c019084fa68f", 4650, 6306),
        "greedy_oneshot": ("1dab6ab7031c7e3a", 50541, 58292),
        "greedy_snapshot": ("9b226a54032e4474", 225338, 201556),
        "greedy_ris": ("724f0e943415b44a", 4663, 6265),
    },
    ("BA_d", "UC_0.1"): {
        "forward": ("3c57ba8a4c8539eb", 555541, 7712304),
        "forward_base": ("08abe570f9f394ca", 1393813, 19387339),
        "snapshot_build": ("fed5c3eb5ce19422", 8761, 0),
        "snapshot": ("a64eaf30b7deb2a8", 1210634, 1677712),
        "snapshot_base": ("09709cabc391b518", 3753210, 5196947),
        "rr": ("0d14b059cefeedde", 282367, 3920172),
        "greedy_oneshot": ("3072638a056e90d5", 764614, 10609782),
        "greedy_snapshot": ("cbcac815c0f25663", 4337035, 6116497),
        "greedy_ris": ("346bc80b6c4a9b62", 292370, 4052097),
    },
    ("GrQc_syn", "UC_0.01"): {
        "forward": ("0d05713a59a796a5", 6468, 47255),
        "forward_base": ("47b949e9f738e51c", 19716, 175627),
        "snapshot_build": ("14dd3b000e2f4524", 789, 0),
        "snapshot": ("5ea72c76a6146a44", 12896, 909),
        "snapshot_base": ("596168f24794ba32", 51290, 3318),
        "rr": ("1d5c69aa5cef03af", 2174, 16662),
        "greedy_oneshot": ("8bdde108d575647d", 10069, 110275),
        "greedy_snapshot": ("a15258afb299284e", 52878, 16937),
        "greedy_ris": ("44da8b40e7f54944", 2154, 15232),
    },
    ("Physicians_syn", "OWC"): {
        "forward": ("829eeab82941cad0", 9166, 41319),
        "forward_base": ("add73edff678526b", 22086, 96132),
        "snapshot_build": ("43a3146826c1fd83", 1911, 0),
        "snapshot": ("83537347387a625f", 19039, 18892),
        "snapshot_base": ("0d4d033c624e2801", 65884, 65423),
        "rr": ("29a2d65b265e7e75", 19535, 88059),
        "greedy_oneshot": ("f10d617816b40972", 13539, 59827),
        "greedy_snapshot": ("0e8ff921c93a9061", 85022, 90253),
        "greedy_ris": ("f6a2ab139c9542ec", 19642, 87588),
    },
}


@pytest.mark.parametrize("network,setting", INSTANCES)
def test_kernel_outputs_pinned(network, setting):
    got = kernel_outputs(influence_graph(network, setting))
    assert got == PINS[(network, setting)]
