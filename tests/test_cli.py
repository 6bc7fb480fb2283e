"""End-to-end checks of the linhyp command-line interface."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from linhyp import WorkCeilingError, census, montecarlo, switching, uniform_partition, verify
from linhyp.cli import _decimal_from_log, main
from linhyp.verify import enumerable_grid


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_census_json_pins(capsys):
    rc, out, err = run_cli(capsys, "census", "--parts", "2,2,2", "--r", "3", "--m", "2")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["total"] == "28"
    assert payload["linear"] == "16"
    assert payload["by_cluster"] == {"0": "16", "1": "12"}
    assert payload["not_plus"] == "0"
    assert payload["parts"] == [2, 2, 2]
    assert (payload["r"], payload["m"]) == (3, 2)


def test_repeat_runs_byte_identical(capsys):
    argv = ("sample", "--uniform-n", "6", "--r", "3", "--m", "2", "--trials", "8192", "--seed", "7")
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    assert first[0] == 0


def test_sample_thread_count_does_not_change_output(capsys):
    base = ("sample", "--parts", "2,2,2", "--r", "3", "--m", "2", "--trials", "8192")
    _, out1, _ = run_cli(capsys, *base, "--threads", "1")
    _, out3, _ = run_cli(capsys, *base, "--threads", "3")
    assert out1 == out3
    payload = json.loads(out1)
    assert payload["trials"] == "8192"
    assert int(payload["hits"]) > 0


def test_workers_env_fallback(capsys, monkeypatch):
    base = ("sample", "--parts", "2,2,2", "--r", "3", "--m", "2", "--trials", "4096")
    _, expect, _ = run_cli(capsys, *base)
    monkeypatch.setenv("LINHYP_WORKERS", "3")
    rc, out, _ = run_cli(capsys, *base)
    assert rc == 0 and out == expect
    monkeypatch.setenv("LINHYP_WORKERS", "zero")
    rc, _, err = run_cli(capsys, *base)
    assert rc == 2 and "LINHYP_WORKERS" in err
    monkeypatch.delenv("LINHYP_WORKERS")
    rc, _, err = run_cli(capsys, *base, "--threads", "0")
    assert rc == 2


def _refuse_drawing(monkeypatch):
    # a refused request must fail before the sampler draws (allocates) anything
    def no_draw(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(montecarlo, "_draw_block", no_draw)


def test_sample_admits_edge_spaces_beyond_the_old_overlap_matrix(capsys):
    # sigma_3 = 161700 at n=100: no edge-pair matrix is built any more
    rc, out, err = run_cli(
        capsys, "sample", "--uniform-n", "100", "--r", "3", "--m", "10", "--trials", "4096"
    )
    assert rc == 0 and err == ""
    payload = json.loads(out)
    tallies = sum(int(c) for c in payload["cluster_histogram"].values())
    tallies += sum(int(c) for c in payload["violation_counts"].values())
    assert tallies == 4096 and payload["trials"] == "4096"


def test_sample_refuses_work_above_ceiling(capsys, monkeypatch):
    _refuse_drawing(monkeypatch)
    argv = ("sample", "--uniform-n", "1000", "--r", "3", "--m", "300", "--trials", "1000000")
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 3 and out == ""
    assert "sampler work (trials x m^2)" in err
    assert str(10 ** 6 * 300 ** 2) in err and str(montecarlo.SAMPLER_WORK_CEILING) in err


def test_sample_refuses_oversized_block(capsys, monkeypatch):
    _refuse_drawing(monkeypatch)
    argv = ("sample", "--uniform-n", "1000", "--r", "3", "--m", "1000", "--trials", "4096")
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 3 and out == ""
    assert "sampler block" in err and "vertex-subset codes" in err
    assert str(4096 * 1000 * 3) in err


def test_sample_refuses_counts_beyond_int64(capsys, monkeypatch):
    _refuse_drawing(monkeypatch)

    def no_sampler(*args):
        raise AssertionError("built the suffix table before refusing")

    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "EdgeSampler", no_sampler)
        rc, out, err = run_cli(capsys, "sample", "--uniform-n", "1000000", "--r", "4", "--m", "2")
    assert rc == 2 and out == ""
    assert "2**63" in err and str(math.comb(10 ** 6, 4)) in err
    # sigma_3 fits, but 2-subset codes of 6e9 vertices do not
    rc, out, err = run_cli(
        capsys, "sample", "--parts", "3000000000,3000000000,1", "--r", "3", "--m", "2"
    )
    assert rc == 2 and out == ""
    assert "2-subsets" in err and "2**63" in err


def test_sample_refuses_pair_keys_beyond_64_bits(capsys, monkeypatch):
    # r = 3, m = 20: a pair code below (n+1)^2, tagged with 5 bits of edge
    # index, must stay below 2**64; n + 1 = 759250124 is the last that fits
    argv = ("--r", "3", "--m", "20", "--trials", "10")
    with monkeypatch.context() as patch:
        _refuse_drawing(patch)
        rc, out, err = run_cli(capsys, "sample", "--parts", "1,1,759250122", *argv)
    assert rc == 2 and out == ""
    assert "of 759250124 vertices" in err and "(n+1)^2 << 5 below 2**64" in err
    rc, out, err = run_cli(capsys, "sample", "--parts", "1,1,759250121", *argv)
    assert rc == 0 and err == ""
    # every edge holds vertices 1 and 2
    payload = json.loads(out)
    assert payload["hits"] == "0" and payload["violation_counts"] == {"cluster_gt2_edges": "10"}


def test_estimate_uniform_decimal(capsys):
    rc, out, err = run_cli(
        capsys, "estimate", "--uniform-n", "20", "--r", "3", "--m", "1", "--variant", "uniform"
    )
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["value_decimal"] == "1.140000000e+3"
    assert payload["correction"] == 0.0
    assert payload["variant"] == "uniform"


@pytest.mark.parametrize(
    "value, text",
    [
        (999999.99999999, "1.000000000e+6"),
        (9.9999999996e20, "1.000000000e+21"),
        (1.0, "1.000000000e+0"),
        (10.0, "1.000000000e+1"),
    ],
)
def test_decimal_from_log_carries_a_rounded_mantissa(value, text):
    # a mantissa that rounds up to 10 at nine places moves to the exponent
    assert _decimal_from_log(math.log(value)) == text


def test_estimate_refined_uniform(capsys):
    rc, out, err = run_cli(
        capsys, "estimate", "--uniform-n", "30", "--r", "3", "--m", "10", "--variant", "refined"
    )
    assert (rc, err) == (0, "")
    payload = json.loads(out)
    assert payload["variant"] == "refined"
    assert payload["correction_exact"] == "-83/90"


def test_estimate_partite_correction_field(capsys):
    rc, out, _ = run_cli(capsys, "estimate", "--parts", "2,2,2", "--r", "3", "--m", "2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["correction_exact"] == "-27/4"
    assert payload["variant"] == "partite"


def test_estimate_dense_warning_goes_to_stderr(capsys):
    rc, out, err = run_cli(capsys, "estimate", "--parts", "2,2,2", "--r", "3", "--m", "6")
    assert rc == 0
    assert "warning" in err
    json.loads(out)
    rc, _, err = run_cli(capsys, "estimate", "--parts", "2,2,2", "--r", "3", "--m", "2")
    assert rc == 0 and err == ""


def test_estimate_refined_needs_uniform_n(capsys):
    rc, _, err = run_cli(
        capsys, "estimate", "--parts", "2,2,2", "--r", "3", "--m", "2", "--variant", "refined"
    )
    assert rc == 2 and "uniform-n" in err


def test_census_grid_csv(capsys):
    rc, out, err = run_cli(capsys, "census", "--grid")
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "parts,r,m,n,total,linear,not_plus,cluster_cap,strata"
    assert len(lines) == 1 + len(enumerable_grid())
    pinned = [row for row in lines if row.startswith("2+2+2,3,2,")]
    assert len(pinned) == 1
    fields = pinned[0].split(",")
    assert fields[3:7] == ["6", "28", "16", "0"]
    assert fields[8] == "0:16|1:12"


def test_census_without_grid_needs_r_and_m(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--parts", "2,2,2"])
    assert exc.value.code == 2


def test_exit_code_on_domain_error(capsys):
    rc, _, err = run_cli(capsys, "census", "--parts", "2,2,2", "--r", "5", "--m", "1")
    assert rc == 2 and err.startswith("error:")
    rc, _, err = run_cli(capsys, "census", "--parts", "2,x", "--r", "3", "--m", "1")
    assert rc == 2 and "--parts" in err


def test_exit_code_on_work_ceiling(capsys):
    # the refusal names the option that raises the ceiling.  The census is
    # stopped by the search's meter at the default ceiling; the audit's
    # meter would run 35-47 s first, so it gets a ceiling below its
    # up-front price, 1140 index edges and a 1140^2-byte cat
    cases = (
        ("census", (), "census stopped after", "100000000"),
        ("audit-switchings", ("--work-ceiling", "1000000"), "census needs about 1300740 work units", "1000000"),
    )
    for command, extra, said, ceiling in cases:
        rc, out, err = run_cli(capsys, command, "--uniform-n", "20", "--r", "3", "--m", "10", *extra)
        assert (rc, out) == (3, "") and f"above the ceiling of {ceiling};" in err, command
        assert said in err, err
        assert "raise the ceiling with --work-ceiling (work_ceiling= in the library)" in err


def test_estimate_refuses_m_outside_the_edge_space(capsys):
    # no m-edge hypergraph exists past sigma_r, and such an m used to
    # overflow a float or print a count for an empty set
    cases = (
        (("--uniform-n", "3", "--r", "3", "--m", str(10 ** 160)), "0..1"),
        (("--uniform-n", "10", "--r", "3", "--m", str(10 ** 400)), "0..120"),
        (("--uniform-n", "4", "--r", "3", "--m", "5"), "0..4"),
    )
    for argv, edges in cases:
        for variant in ("partite", "uniform", "refined"):
            rc, out, err = run_cli(capsys, "estimate", *argv, "--variant", variant)
            assert (rc, out) == (2, "") and err.startswith("error: m=") and edges in err, (argv, variant)
    rc, out, _ = run_cli(capsys, "estimate", "--uniform-n", "4", "--r", "3", "--m", "4")
    assert rc == 0 and json.loads(out)["m"] == 4


# stdout of the unrooted full sweeps on parts 4,2,3,1,2 r=3, seven edge
# orbits: the census at m=4, the audit at m=3, where it runs in under a second
ORBIT_CELL_STDOUT = {
    ("census", "4"): (
        '{"by_cluster": {"0": "3063920", "1": "3587464", "2": "343548"}, '
        '"cluster_cap": "496", "linear": "3063920", "m": 4, "not_plus": "1219638", '
        '"parts": [4, 2, 3, 1, 2], "r": 3, "total": "8214570"}\n'
    ),
    ("audit-switchings", "3"): (
        '{"all_matched": true, "cluster_cap": "280", "m": 3, "not_plus": "12720", '
        '"parts": [4, 2, 3, 1, 2], "r": 3, "records": [{"count_prev": "173536", '
        '"count_t": "94584", "forward_bracket": ["3948", "14400"], '
        '"forward_measured": [7750, 9058], "matched": true, "ratio_exact": "11823/21692", '
        '"ratio_formula": "33/20", "reverse_bracket": ["0", "23760"], '
        '"reverse_measured": [4270, 4962], "sum_forward": "822476640", '
        '"sum_reverse": "822476640", "t": 1}], "strata": {"0": "173536", "1": "94584"}}\n'
    ),
}


@pytest.mark.parametrize("command, m", sorted(ORBIT_CELL_STDOUT))
def test_orbit_rooted_stdout_is_byte_identical(capsys, command, m):
    rc, out, err = run_cli(capsys, command, "--parts", "4,2,3,1,2", "--r", "3", "--m", m)
    assert (rc, err) == (0, "")
    assert out == ORBIT_CELL_STDOUT[command, m]


def test_exit_code_on_work_ceiling_at_small_m(capsys):
    # few rooted subsets, but a 1.3e9-edge index or a 161700^2-byte cat
    for argv in (
        ("census", "--uniform-n", "2000", "--r", "3", "--m", "2"),
        ("audit-switchings", "--uniform-n", "100", "--r", "3", "--m", "2"),
    ):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (3, "") and "ceiling" in err, argv
    # one edge is never linked to another: C(2000, 3), nothing searched
    rc, out, err = run_cli(capsys, "census", "--uniform-n", "2000", "--r", "3", "--m", "1")
    assert (rc, err) == (0, "") and json.loads(out)["linear"] == "1331334000"


def test_edge_index_bound_refuses_before_building_an_edge(capsys, monkeypatch):
    # the census price admits uniform n=500 m=2 (41,416,999 pair checks),
    # but its 20,708,500 edges would need about 8.9 GB; the overlap
    # expectation builds an index with no price of its own
    def no_edges(*args):
        raise AssertionError("built edge tuples before refusing")

    monkeypatch.setattr(census, "edge_tuples", no_edges)
    rc, out, err = run_cli(capsys, "census", "--uniform-n", "500", "--r", "3", "--m", "2")
    assert (rc, out) == (3, "") and f"edge index needs about {math.comb(500, 3)} edges" in err
    assert "this ceiling is fixed: use fewer vertices" in err
    with pytest.raises(WorkCeilingError) as info:
        montecarlo.expected_overlap_pairs(uniform_partition(1000), 3, 2)
    assert (info.value.required, info.value.ceiling) == (math.comb(1000, 3), census.INDEX_EDGE_LIMIT)


def test_fixed_sampler_ceilings_name_what_to_lower(capsys, monkeypatch):
    # no option raises these ceilings, so the message says which inputs to lower
    _refuse_drawing(monkeypatch)
    cases = (
        (("sample", "--uniform-n", "1000", "--r", "3", "--m", "3000", "--trials", "4096"),
         "id comparisons", "lower the trials or m"),
        (("sample", "--uniform-n", "1000", "--r", "3", "--m", "1000", "--trials", "4096"),
         "vertex-subset codes", "lower m, the trials below 4096"),
    )
    for argv, unit, remedy in cases:
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (3, ""), argv
        assert unit in err and "this ceiling is fixed: " + remedy in err, err
        assert "pair checks" not in err and "raise the ceiling" not in err, err


def test_audit_cli_smoke(capsys):
    rc, out, _ = run_cli(capsys, "audit-switchings", "--parts", "2,2,2", "--r", "3", "--m", "2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["all_matched"] is True
    rec = payload["records"][0]
    assert rec["sum_forward"] == "384"
    assert rec["sum_reverse"] == "384"
    assert rec["matched"] is True


def test_series_cli_smoke(capsys):
    rc, out, _ = run_cli(
        capsys, "series-bounds", "--parts", "2,2,2", "--r", "3", "--m", "2", "--with-census"
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["a_value"] == 6.75
    assert payload["exact_sum"] == "7/4"
    assert payload["model_sum"] == pytest.approx(7.75)
    assert payload["applicability"]


@pytest.mark.parametrize("constant", ["-1", "nan", "inf"])
def test_series_cli_refuses_a_bad_budget_constant(capsys, constant):
    rc, out, err = run_cli(
        capsys, "series-bounds", "--uniform-n", "200", "--r", "3", "--m", "2",
        "--budget-constant", constant,
    )
    assert (rc, out) == (2, "") and "budget constant" in err


def test_series_cli_refuses_t_prime_below_one_at_m_below_two(capsys):
    # the m < 2 answer is trivial, but an explicit cutoff is still checked
    rc, out, err = run_cli(
        capsys, "series-bounds", "--parts", "2,2,2", "--r", "3", "--m", "1", "--t-prime", "-5"
    )
    assert (rc, out) == (2, "") and "t_prime" in err


def test_series_cli_refuses_t_prime_below_one_before_the_census(capsys, monkeypatch):
    def no_census(*args, **kwargs):
        raise AssertionError("census ran before the cutoff was checked")

    monkeypatch.setattr(switching, "census_by_cluster", no_census)
    rc, out, err = run_cli(
        capsys, "series-bounds", "--parts", "2,2,2", "--r", "3", "--m", "3",
        "--with-census", "--t-prime", "0",
    )
    assert (rc, out) == (2, "") and "t_prime" in err


def test_verify_cli_run(capsys):
    rc = main(["verify", "--threads", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_verify_inclusion_band_holds_at_any_trial_count():
    # a single hit of a rare triple (trials * p << 1) is no evidence of
    # bias; a normal 4-sigma band failed it at 1000 and 20000 trials
    assert 20000 * verify._bernoulli_kl(1, 20000, Fraction(1, 10 ** 6)) <= verify.INCLUSION_KL_BOUND
    assert 20000 * verify._bernoulli_kl(5, 20000, Fraction(1, 10 ** 6)) > verify.INCLUSION_KL_BOUND
    assert verify._bernoulli_kl(7, 7, Fraction(1)) == 0.0
    for trials in (1000, 20000):
        lines = []
        suite = verify._Suite(lines.append)
        verify._check_subset_inclusion(suite, trials)
        assert suite.failures == 0, lines


@pytest.mark.parametrize("trials", [1000, 20000])
def test_verify_inclusion_counts_hits_block_by_block(monkeypatch, trials):
    # oracle: the whole (trials, m) draw array of each cell, and the same
    # ten fixed sets per cell from the same stream
    rng = verify.make_rng(20240503)
    bad, checked = [], 0
    for g in verify.census_grid():
        if g.m < 1:
            continue
        samples = montecarlo.draw_subset_ids(g.pv, g.r, g.m, trials, seed=11)
        for _ in range(10):
            t = int(rng.integers(1, g.m + 1))
            fixed = rng.choice(verify.sigma(g.pv, g.r), size=t, replace=False)
            hits = int(np.logical_and.reduce([(samples == x).any(axis=1) for x in fixed]).sum())
            p = montecarlo.edge_subset_probability(g.pv, g.r, g.m, t)
            checked += 1
            if trials * verify._bernoulli_kl(hits, trials, p) > verify.INCLUSION_KL_BOUND:
                bad.append(f"{g.label} t={t}: {hits / trials:.6f} vs {float(p):.6f}")
    mark, detail = ("FAIL", f" ({'; '.join(bad[:3])})") if bad else ("pass", "")
    want = [f"{mark}: inclusion frequencies match exact probabilities ({checked} triples){detail}"]

    def refuse(*args, **kwargs):
        raise AssertionError("the whole draw array must not be built")

    monkeypatch.setattr(montecarlo, "draw_subset_ids", refuse)
    monkeypatch.setattr(verify, "draw_subset_ids", refuse, raising=False)
    lines = []
    verify._check_subset_inclusion(verify._Suite(lines.append), trials)
    assert lines == want
