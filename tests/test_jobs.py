"""Smoke tests: every table runs end-to-end at the test profile, and the
sweep job resumes only completed sweeps."""
import os
import shutil
import sys

import pandas as pd
import pytest

from repro.experiments import instances, rr_oracle, tables

JOBS_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "jobs")
if JOBS_DIR not in sys.path:
    sys.path.insert(0, JOBS_DIR)


@pytest.fixture(scope="module")
def trials(spark, tmp_path_factory):
    import run_sweeps

    out = str(tmp_path_factory.mktemp("trials"))
    run_sweeps.run(spark, profile="test", out_dir=out)
    return run_sweeps.load_trials(spark, out).cache()


def test_table3_job(spark):
    t3 = tables.table3(spark, networks=["Karate", "BA_s"])
    assert list(t3["network"]) == ["Karate", "BA_s"]
    karate = t3[t3["network"] == "Karate"].iloc[0]
    assert karate["n"] == 34 and karate["m"] == 156
    assert karate["max_out"] == 17


def test_table4_job(spark):
    t4 = tables.table4(spark, theta=1 << 13)
    assert len(t4) == 8  # 2 networks × 4 settings
    assert (t4["inf_1st"] >= t4["inf_2nd"]).all()
    assert (t4["inf_2nd"] >= t4["inf_3rd"]).all()
    # Paper Table 4 ordering on both BA networks: IWC > OWC > UC_0.01
    # (UC_0.1 can exceed IWC on BA_d where a giant component emerges).
    for net in ("BA_s", "BA_d"):
        sub = t4[t4["network"] == net].set_index("setting")["inf_1st"]
        assert sub["IWC"] > sub["OWC"] > sub["UC_0.01"]


def test_sweep_parquet_shape(trials):
    pdf = trials.toPandas()
    assert set(pdf["alg"].unique()) == {"oneshot", "snapshot", "ris"}
    assert pdf.groupby(["setting", "alg", "sample_number"]).size().min() == 20


def test_table5_job(trials):
    t5 = tables.table5(trials)
    assert set(t5["alg"]) == {"oneshot", "snapshot", "ris"}
    # Each (setting, alg) appears once for k=1.
    assert len(t5) == 6


def test_table6_job(trials):
    t6 = tables.table6_and_7(trials)[0]
    assert len(t6) == 2  # two settings in the test profile
    assert "median_number_ratio" in t6.columns


def test_table7_job(trials):
    t7 = tables.table6_and_7(trials)[1]
    assert len(t7) == 2
    # RIS samples are smaller than Snapshot's on Karate (size ratio < 1 is
    # the paper's space-saving finding; keep a loose bound here).
    assert (t7["median_size_ratio"] < 10).all()


def test_table8_job(spark):
    t8 = tables.table8(spark, profile="test")
    assert set(t8["alg"]) == {"oneshot", "snapshot", "ris"}
    k = t8.set_index("alg")
    # Karate UC_0.1 shape: vertex cost Oneshot ≈ Snapshot ≫ RIS.
    assert k.loc["oneshot", "vertex_cost"] == pytest.approx(
        k.loc["snapshot", "vertex_cost"], rel=0.15
    )
    assert k.loc["ris", "vertex_cost"] < k.loc["oneshot", "vertex_cost"] / 5


def test_table9_job(spark, trials):
    t8 = tables.table8(spark, profile="test")
    t9 = tables.table9(trials, t8)
    assert set(t9["alg"]) == {"oneshot", "snapshot", "ris"}
    assert (t9["cost_per_gamma"].dropna() > 0).all()


def test_to_markdown_renders():
    md = tables.to_markdown(pd.DataFrame({"a": [1.23456], "b": ["x"]}))
    assert md.splitlines()[0] == "| a | b |"
    assert "1.235" in md


def test_table4_theta_follows_profile():
    assert instances.profile_theta("test") == 1 << 14
    assert instances.profile_theta("quick") == 1 << 18


def test_run_sweeps_resumes_only_completed(spark, tmp_path, monkeypatch):
    import run_sweeps

    grids = {"oneshot": [1, 2], "snapshot": [1, 2], "ris": [4, 16]}
    tiny = [
        instances.Sweep("Karate", "UC_0.1", k, 3, grids, 1 << 10)
        for k in (1, 2)
    ]
    monkeypatch.setattr(instances, "sweeps", lambda profile: tiny)
    builds = []
    load, build = tables.load_influence_graph, rr_oracle.build_oracle
    monkeypatch.setattr(
        tables, "load_influence_graph",
        lambda *a, **kw: builds.append("graph") or load(*a, **kw),
    )
    monkeypatch.setattr(
        rr_oracle, "build_oracle",
        lambda *a, **kw: builds.append("oracle") or build(*a, **kw),
    )

    def rows(out):
        pdf = run_sweeps.load_trials(spark, str(out)).toPandas()
        keys = ["k", "alg", "sample_number", "trial"]
        return pdf.sort_values(keys).reset_index(drop=True)

    fresh = tmp_path / "fresh"
    run_sweeps.run(spark, "test", str(fresh))
    # Both sweeps share (network, setting, θ): one graph, one oracle.
    assert builds == ["graph", "oracle"]

    # k=1 is a partial write (no _SUCCESS), k=2 a completed one.
    resumed = tmp_path / "resumed"
    partial = resumed / "Karate__UC_0.1__k1"
    partial.mkdir(parents=True)
    (partial / "junk").write_text("interrupted")
    done = resumed / "Karate__UC_0.1__k2"
    shutil.copytree(fresh / "Karate__UC_0.1__k2", done)
    (done / "_kept").write_text("")
    builds.clear()
    run_sweeps.run(spark, "test", str(resumed))
    assert builds == ["graph", "oracle"]
    assert not (partial / "junk").exists()
    assert (partial / "_SUCCESS").exists() and (done / "_kept").exists()
    pd.testing.assert_frame_equal(rows(resumed), rows(fresh))

    # Every sweep done: nothing is built.
    builds.clear()
    run_sweeps.run(spark, "test", str(resumed))
    assert builds == []
