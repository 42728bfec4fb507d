"""Smoke tests: every table runs end-to-end at the test profile, the sweep
runner resumes only completed sweeps, and the one job script writes exactly
the tables it is asked for."""
import importlib.util
import os
import shutil

import pandas as pd
import pytest

from repro.experiments import instances, rr_oracle, runner, tables

JOB = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "jobs", "make_all_tables.py"
)


@pytest.fixture(scope="module")
def trials(spark, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("trials"))
    runner.run_sweeps(spark, "test", out)
    return runner.load_trials(spark, out).cache()


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
    t6, t7 = tables.table6_and_7(trials)
    t9 = tables.table9(t6, t7, t8)
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
        pdf = runner.load_trials(spark, str(out)).toPandas()
        keys = ["k", "alg", "sample_number", "trial"]
        return pdf.sort_values(keys).reset_index(drop=True)

    fresh = tmp_path / "fresh"
    runner.run_sweeps(spark, "test", str(fresh))
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
    runner.run_sweeps(spark, "test", str(resumed))
    assert builds == ["graph", "oracle"]
    assert not (partial / "junk").exists()
    assert (partial / "_SUCCESS").exists() and (done / "_kept").exists()
    pd.testing.assert_frame_equal(rows(resumed), rows(fresh))

    # Every sweep done: nothing is built.
    builds.clear()
    runner.run_sweeps(spark, "test", str(resumed))
    assert builds == []


def test_make_all_tables_writes_requested_tables(spark, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_all_tables", JOB)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)

    out = str(tmp_path)
    job.main(["--profile", "test", "--tables", "8", "--out", out])
    assert os.listdir(tmp_path) == ["table8.md"]
    expected = tables.to_markdown(tables.table8(spark, "test")) + "\n"
    assert (tmp_path / "table8.md").read_text() == expected

    # A table outside 3-9 is a usage error, raised before Spark is asked for.
    def no_spark(app):
        raise AssertionError("Spark started for a bad --tables")

    monkeypatch.setattr(job, "get_spark", no_spark)
    with pytest.raises(SystemExit) as exit_:
        job.main(["--profile", "test", "--tables", "2", "--out", out])
    assert exit_.value.code == 2
