"""Smoke tests for the demo scripts under scripts/."""

import functools
import pathlib
import re
import runpy

import numpy as np

import equifit
from equifit.errors import NumericFailure

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_demo_parabola(tmp_path, capsys):
    demo = runpy.run_path(str(SCRIPTS / "demo_parabola.py"))
    curve = tmp_path / "curve.csv"
    demo["run"](n=101, out_path=curve)
    out = capsys.readouterr().out
    assert "discrepancy:  0.125000000000" in out
    assert "equioscillates: True" in out
    assert len(curve.read_text().splitlines()) == 201


def test_one_sided_demo(capsys):
    runpy.run_path(str(SCRIPTS / "one_sided_demo.py"), run_name="__main__")
    assert "equioscillates: False" in capsys.readouterr().out


def test_large_fit_reports_and_certifies(capsys):
    script = runpy.run_path(str(SCRIPTS / "large_fit.py"))
    assert script["run"](2000, 4)
    out = capsys.readouterr().out
    assert "certificate identities: ok" in out
    assert re.search(
        r"^tracemalloc peak \d+\.\d\d MB, \d\.\d\d doubles per point "
        r"\(limit 0\.10 MB: 6 x n doubles\)$",
        out,
        re.MULTILINE,
    )
    assert re.search(r"^fit \d+\.\d+ s \(limit 1 s\), \d+ exchanges$", out, re.MULTILINE)
    # U_r and the lifted values: 5 x 2000 doubles, 0.08 MB, within 1.1 x.
    assert re.search(
        r"^instance \d+\.\d+ s, tracemalloc peak \d+\.\d MB, retains 0\.08 MB "
        r"\(limit 0\.09 MB: 1\.1 x \(rank \+ 1\) x n doubles\)$",
        out,
        re.MULTILINE,
    )
    assert not script["run"](2000, 4, 0)
    assert not script["run"](2000, 4, max_seconds=0.0)
    assert not script["run"](2000, 4, max_retained=0.9)
    assert "(limit 0.07 MB: 0.9 x (rank + 1) x n doubles)" in capsys.readouterr().out


def test_fit_digest_is_deterministic(capsys):
    digest = runpy.run_path(str(SCRIPTS / "fit_digest.py"))
    first = digest["run"](blocks=1)
    assert first == digest["run"](blocks=1)
    assert [line.split(":")[0] for line in first] == [
        f"{name} seed {seed}" for name, seed, _ in digest["SLICES"]
    ] + ["selftest seed 42"]
    # Each slice's line holds its full digest, then its fits-alone digest.
    for line in first[:-1]:
        full, alone = line.split(" raised, ")[1].split(", fits ")
        assert len(full) == len(alone) == 64
        assert full != alone
    out = capsys.readouterr().out
    assert "many_small seed 7: 12 ops, 0 raised, " in out
    assert "selftest seed 42: 5 instances, " in out


def test_census_counts_a_slice_within_its_limits(capsys):
    census = runpy.run_path(str(SCRIPTS / "census.py"))
    # Seed 1, blocks 0-1 holds two grid_smooth fits that raised on the
    # basis's own scaled columns (exp/m6 in block 0, exp/m5 in block 1).
    counts = census["run"](seeds=(1,), blocks=2, count=20)
    out = capsys.readouterr().out
    assert "grid_smooth: 18 fits, 0 raised, 0 with max|r| > 1.01 d, 0 with d < 0" in out
    assert (
        "shift c=100: 20 fits, 0 raised, 0 low_rank, 0 uncertified, 0 worse "
        "than the reference, 0 with d < 0" in out
    )
    # At c = 1000 the rank rule flags 10 of the first 20 cubics: they
    # certify on the span it keeps, and fit worse than the reference
    # (ROADMAP item 4).
    assert (
        "shift c=1000: 20 fits, 0 raised, 10 low_rank, 0 uncertified, 10 worse "
        "than the reference, 0 with d < 0" in out
    )
    # Judged in 64 rounding units of the data, every large-|y| fit certifies.
    assert "large |y|: 20 fits, 0 raised, 0 low_rank, 0 exact, 0 uncertified" in out
    # The oracle's feasibility test and agreement are in the same unit, so it
    # agrees on every offset fit (13 of these 20 disagreed when its slack
    # was 1e-9 * max |y|).
    assert (
        "offset: 20 fits, 0 raised, 0 skipped by the oracle, 0 where the oracle "
        "disagrees" in out
    )
    # A candidate must meet its own d within its rounding unit, so no near
    # tie is answered below the optimum (all 20 were when the slack was
    # 1e-9 * max(1, H)).
    assert (
        "near-tie: 20 fits, 0 raised, 0 skipped by the oracle, 0 where the "
        "oracle's d is below the fit's" in out
    )
    # The lifts are uncapped and every check reads the lifted numbers, so
    # values down to 2^-1060 fit like any others (at the capped lift the
    # first 20 tiny-scale fits held 1 flagged exact and 6 uncertified).
    assert (
        "tiny-scale: 20 fits, 0 raised, 0 exact, 0 uncertified, 0 skipped by "
        "the oracle, 0 where the oracle disagrees" in out
    )
    # Every check reads the rank, so dependent lists certify and agree with
    # the oracle on their span.
    assert (
        "dependent lists: 20 fits, 0 raised, 0 uncertified, 0 skipped by the "
        "oracle, 0 where the oracle disagrees" in out
    )
    assert all(counts[name] <= limit for name, limit in census["LIMITS"].items())


def test_census_gate_prints_each_count_above_its_limit_and_returns_1(monkeypatch, capsys):
    census = runpy.run_path(str(SCRIPTS / "census.py"))
    counts = dict(census["LIMITS"])
    main = census["main"]
    monkeypatch.setitem(main.__globals__, "run", lambda *args: counts)
    # A count at its limit passes.
    assert main() == 0
    assert capsys.readouterr().out == ""
    counts["shift c=1000 low_rank"] += 1
    assert main() == 1
    assert capsys.readouterr().out == "shift c=1000 low_rank: 122 above the limit 121\n"


def test_census_gates_every_count_it_makes(capsys):
    census = runpy.run_path(str(SCRIPTS / "census.py"))
    counts = census["run"](seeds=(1,), blocks=1, count=1)
    assert set(counts) == set(census["LIMITS"])


def test_census_counts_a_shift_pair_whose_reference_fit_raises_as_raised(
    monkeypatch, capsys
):
    census = runpy.run_path(str(SCRIPTS / "census.py"))
    main = census["main"]
    u, _, _ = next(census["shift_instances"](1))
    fit, raised = equifit.fit, []

    def raising_once(instance):
        # The first shift instance's reference fit, at x = u, raises once.
        if not raised and np.array_equal(instance.points[:, 0], u):
            raised.append(instance)
            raise NumericFailure("patched")
        return fit(instance)

    monkeypatch.setattr(equifit, "fit", raising_once)
    monkeypatch.setitem(
        main.__globals__, "run", functools.partial(census["run"], seeds=(1,), blocks=1, count=2)
    )
    assert main() == 1
    out = capsys.readouterr().out
    assert "shift c=100: 2 fits, 1 raised, " in out
    assert "shift c=1000: 2 fits, 0 raised, " in out
    assert out.endswith("\nshift c=100 raised: 1 above the limit 0\n")
