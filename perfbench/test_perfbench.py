"""Self-tests of the benchmark: checks catch corrupted outputs, the
population is a pure function of the seed, and the tracer sees the layers.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(HERE, "reference.json")) as fh:
    REFERENCE = json.load(fh)


@pytest.fixture
def ctx():
    return checks.Context(ROOT, REFERENCE)


def _run_check(check, rc, out, ctx, **params):
    return checks.CHECKS[check](rc, out, params, ctx)


# ------------------------------------------------------------ population


def test_population_is_a_pure_function_of_the_seed():
    first, second = workloads.population(7), workloads.population(7)
    assert first == second
    assert first != workloads.population(8)
    assert len(first) >= 100


def test_population_specs_are_valid_and_span_the_design():
    from switchctrl.model import parse_spec, validate

    sizes = set()
    for _, data in workloads.population(3):
        system = parse_spec(data)
        assert validate(system) == []
        sizes.add((system.n, system.n_modes))
    assert {n for n, _ in sizes} == set(workloads.POP_N)
    assert min(n for n, _ in sizes) == 2 and max(n for n, _ in sizes) == 12
    assert {k for _, k in sizes} == {2, 3, 4, 5}


# ---------------------------------------------------------- check-sweep


def _golden(name):
    with open(os.path.join(ROOT, "tests", "data", f"report_{name}.json")) as fh:
        return fh.read()


def test_shipped_report_passes_and_flipped_verdict_fails(ctx):
    out = _golden("nec1_not_det")
    assert _run_check("shipped_report", 2, out, ctx, name="nec1_not_det") == []
    flipped = out.replace('"verdict":"no"', '"verdict":"yes"', 1)
    assert flipped != out
    assert _run_check("shipped_report", 2, flipped, ctx, name="nec1_not_det")
    assert _run_check("shipped_report", 0, out, ctx, name="nec1_not_det")


def test_generated_report_checks(ctx):
    doc = json.loads(_golden("nec1_det_not_nec2"))  # verdict "no", exit 2
    assert _run_check("generated_report", 2, json.dumps(doc), ctx) == []
    assert ctx.verdicts == {"no": 1}
    assert _run_check("generated_report", 0, json.dumps(doc), ctx)
    crit = {c["name"]: c for c in doc["criteria"]}
    crit["nec1"]["details"]["consistent"] = False
    assert _run_check("generated_report", 2, json.dumps(doc), ctx)
    crit["nec1"]["details"]["consistent"] = True
    crit["suf1"]["overall"] = True  # nec2 fails on this system
    assert _run_check("generated_report", 2, json.dumps(doc), ctx)


# ------------------------------------------------------------ mc workloads


def _min_energy(N, mean, se, bound_pass=True):
    return json.dumps({"N": N, "bound_pass": bound_pass,
                       "terminal_msq": {"mean": mean, "std_error": se}})


def test_min_energy_checks(ctx):
    assert _run_check("min_energy", 0, _min_energy(1, 1.3, 0.05), ctx, N=1) == []
    assert _run_check("min_energy", 0, _min_energy(4, 1e-4, 1e-4), ctx, N=4) == []
    assert _run_check("min_energy", 0, _min_energy(16, 0.0, 0.0, False), ctx, N=16)
    ctx.new_cycle()
    assert _run_check("min_energy", 0, _min_energy(1, 0.1, 0.01), ctx, N=1) == []
    assert _run_check("min_energy", 0, _min_energy(4, 0.5, 0.01), ctx, N=4)


def test_verify_output_with_a_failed_assertion_fails(ctx):
    good = "PASS  a: fine\nPASS  b: fine\n"
    assert _run_check("verify", 0, good, ctx) == []
    assert _run_check("verify", 2, good.replace("PASS  b", "FAIL  b"), ctx)
    assert _run_check("verify", 0, "", ctx)


def test_feedback_dual_checks(ctx):
    good = {"max_kernel_residual": 3e-16, "witness_dim": 1}
    assert _run_check("feedback_dual", 0, json.dumps(good), ctx) == []
    assert _run_check("feedback_dual", 0, json.dumps({**good, "max_kernel_residual": 1e-3}), ctx)
    assert _run_check("feedback_dual", 0, json.dumps({**good, "witness_dim": 2}), ctx)


# --------------------------------------------------------- riccati-ladder


def _riccati_json(key, factor=1.0, verdict=None):
    ref = REFERENCE["riccati"][key]
    return json.dumps({"verdict": verdict or ref["verdict"],
                       "table": [[N, q * factor] for N, q in ref["table"]]})


def _riccati_csv(perturb=0.0):
    ref = REFERENCE["riccati"]["nec1_det_not_nec2"]["csv_terminal_K"]
    rows = ["N,t,k11,k12,k21,k22"]
    for N, K in ref.items():
        rows.append(",".join(repr(v) for v in [float(N), 0.0, 0.0, 0.0, 0.0, 0.0]))
        K = [K[0] * (1.0 + perturb), *K[1:]]
        rows.append(",".join(repr(v) for v in [float(N), 1.0, *K]))
    return "\n".join(rows) + "\n"


def test_riccati_checks(ctx):
    for key, verdict in (("nec1_det_not_nec2", "viable"), ("ctrl_not_suf1", "nonviable")):
        assert _run_check("riccati", 0, _riccati_json(key), ctx, key=key, verdict=verdict) == []
    assert _run_check("riccati", 0, _riccati_json("ctrl_not_suf1", 1.0 + 1e-6), ctx,
                      key="ctrl_not_suf1", verdict="nonviable")
    assert _run_check("riccati", 0, _riccati_json("ctrl_not_suf1", verdict="viable"), ctx,
                      key="ctrl_not_suf1", verdict="nonviable")


def test_riccati_csv_checks(ctx):
    key = "nec1_det_not_nec2"
    _run_check("riccati", 0, _riccati_json(key), ctx, key=key, verdict="viable")
    assert _run_check("riccati_csv", 0, _riccati_csv(), ctx, key=key, n=2) == []
    assert _run_check("riccati_csv", 0, _riccati_csv(1e-6), ctx, key=key, n=2)
    bad_header = _riccati_csv().replace("k22", "k33", 1)
    assert _run_check("riccati_csv", 0, bad_header, ctx, key=key, n=2)


# ---------------------------------------------------------------- tracer


def test_tracer_records_layers_through_the_cli():
    script = (
        "import io, contextlib, json\n"
        "from tracing import Tracer\n"
        "t = Tracer(); t.install()\n"
        "from switchctrl import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['check', 'specs/nec1_not_det.json'])\n"
        "print(json.dumps(t.layer_metrics(1)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    m = {k: v["value"] for k, v in json.loads(out).items()}
    assert m["cli.calls"] == 1
    assert m["model.parse_s"] > 0 and m["report.check_report_s"] > 0
    assert m["subspace.calls"] > 10 and m["criteria.fixpoint_calls"] > 0
    assert m["criteria.fixpoint_rounds"] >= m["criteria.fixpoint_calls"]
    assert m["riccati.rungs"] == 0 and m["pdmp.sample_calls"] == 0
    assert m["criteria.nec2_s"] < m["report.check_report_s"]


def test_tracer_refuses_a_missing_name(monkeypatch):
    import tracing
    from switchctrl import riccati

    original = riccati.integrate_riccati
    layers = dict(tracing.LAYERS, riccati=tracing.LAYERS["riccati"] + ("solve_adaptive",),
                  synth=tracing.LAYERS["synth"] + ("MinEnergyRestartPolicy.gone",))
    monkeypatch.setattr(tracing, "LAYERS", layers)
    with pytest.raises(tracing.MissingNames) as err:
        tracing.Tracer().install()
    assert "riccati.solve_adaptive" in str(err.value)
    assert "synth.MinEnergyRestartPolicy.gone" in str(err.value)
    assert riccati.integrate_riccati is original  # nothing was wrapped


def test_tracer_leaves_hidden_time_out_of_every_span():
    from tracing import Tracer

    t = Tracer()
    t.names = ["riccati.integrate_riccati", "subspace.kernel"]
    t.spans = [(0, 0, 100, -1, 0), (1, 10, 50, 0, 0)]  # the child runs 10..50
    totals = t.totals(hidden=lambda a, b: 20 if a <= 20 and b >= 40 else 0)
    assert totals["incl:riccati.integrate_riccati"] == 80
    assert totals["incl:subspace.kernel"] == 20
    assert totals["self:riccati"] == 60 and totals["self:subspace"] == 20


def test_check_sweep_latency_counts_only_check_calls(tmp_path):
    workloads.write_population(1, str(tmp_path))
    calls = workloads.plan("check-sweep", 1, str(tmp_path))
    timed = [c for c in calls if workloads.latency_call("check-sweep", c.argv)]
    assert {c.argv[0] for c in timed} == {"check"}
    assert len(timed) == len(calls) - 2 >= 100
    assert all(workloads.latency_call("mc-forward", c.argv)
               for c in workloads.plan("mc-forward", 1))


# ----------------------------------------------------------- calibration


def test_speed_factor_uses_the_kernel_samples_around_the_call():
    from calib import NOMINAL_S, SpeedLog

    log = SpeedLog()
    log.starts, log.ends, log.kernel_s = [0.0, 1.0, 2.0], [0.1, 1.1, 2.1], [
        NOMINAL_S, 3 * NOMINAL_S, 2 * NOMINAL_S]
    assert log.factor(0.2, 0.9) == pytest.approx(0.5)  # half speed on average
    assert log.factor(1.2, 1.9) == pytest.approx(0.4)
    assert log.factor(0.2, 1.9) == pytest.approx(0.5)  # the sample inside counts
    assert log.busy(0.2, 1.9) == pytest.approx(0.1)
    assert log.busy(1.2, 1.9) == 0.0
    with pytest.raises(ValueError):
        log.factor(2.2, 2.5)
