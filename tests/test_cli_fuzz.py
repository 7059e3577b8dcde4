"""Property test: `qspec bounds`, `spectrum`, `dla`, `variance` and
`train --config` end with exit 0, 1 or 2, never a traceback, and on exit 1
one `error:` line."""

import contextlib
import io
import json
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qspec.cli import dispatch  # noqa: E402

SPECIAL = ["1e308", "-1e308", "inf", "-inf", "nan", "0", "-1", "-3"]
number = st.one_of(st.integers(-3, 9).map(str), st.sampled_from(SPECIAL))
numbers = st.lists(number, min_size=0, max_size=4).map(",".join)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = dispatch(argv)
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err.getvalue(), argv
    if rc == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
    return rc


@settings(derandomize=True, max_examples=60, deadline=None)
@given(d=number, r=number, ks=numbers)
@example(d="3", r="2", ks="1,2,300000")
@example(d="3", r="2", ks="4,8,1e308")
@example(d="1", r="2", ks="1,2,inf")
@example(d="2", r="nan", ks="1,2,3")
@example(d="0", r="2", ks="1,2,3")
@example(d="-1", r="-1", ks="-3,0,1e308")
def test_bounds_lower_fuzz(d, r, ks):
    run(["bounds", "lower", "--d", d, "--r", r, "--K", ks])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(d=number, r=number, ks=numbers, count=number, max_freq=number, modes=number)
@example(d="2", r="2", ks="1,2", count="0", max_freq="8", modes="12")
@example(d="2", r="2", ks="1e308", count="1", max_freq="8", modes="12")
@example(d="2", r="inf", ks="nan", count="-1", max_freq="-1", modes="0")
@example(d="2", r="2", ks="", count="2", max_freq="0", modes="1")
@example(d="2", r="2", ks="1,2", count="1", max_freq="8", modes="1000000000000")  # over the caps
@example(d="2", r="2", ks="1,2", count="100000000", max_freq="8", modes="12")
def test_bounds_upper_fuzz(d, r, ks, count, max_freq, modes):
    run(["bounds", "upper", "--d", d, "--r", r, "--K", ks, "--count", count,
         "--max-freq", max_freq, "--modes", modes])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(number, number), min_size=0, max_size=3))
@example(pairs=[("1e308", "1")])
@example(pairs=[("inf", "2"), ("nan", "1")])
@example(pairs=[("2", "0"), ("-1", "-3")])
def test_bounds_limit_fuzz(pairs):
    run(["bounds", "limit", "--pairs", ",".join(f"{r}:{d}" for r, d in pairs)])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(eigs=st.lists(numbers, min_size=1, max_size=2), tol=number)
@example(eigs=[",".join(str(k) for k in range(4097))], tol="0")  # over the value cap
@example(eigs=["1e308,-1e308"], tol="1")
@example(eigs=["0,1e308,3"], tol="1")
def test_spectrum_fuzz(eigs, tol):
    argv = ["spectrum"]
    for e in eigs:
        argv += ["--eigs", e]
    run(argv + ["--tol", tol])


# terms of at most three qubits keep every closure small
label = st.text(alphabet="IXYZQ", min_size=0, max_size=3)
term = st.one_of(label, st.builds("{}*{}".format, number, label))
sign = st.sampled_from(["+", "-", "", "--", "+-", " - "])
pauli_sum = st.builds(lambda first, rest: first + "".join(s + t for s, t in rest),
                      term, st.lists(st.tuples(sign, term), max_size=2))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(exprs=st.lists(pauli_sum, min_size=0, max_size=3), tol=number)
@example(exprs=["X-"], tol="0")    # stray signs
@example(exprs=["X--Y"], tol="0")
@example(exprs=["-"], tol="0")
@example(exprs=["inf*X", "Y"], tol="0")
@example(exprs=["nan*X"], tol="0")
def test_dla_fuzz(exprs, tol):
    run(["dla", "--paulis=" + ";".join(exprs), "--tol", tol])


weight = st.one_of(number, st.sampled_from(["0.25", "0.5", "0.75", "1.5"]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(weights=st.lists(weight, min_size=0, max_size=4).map(",".join),
       samples=st.one_of(st.integers(-3, 2000).map(str), st.sampled_from(SPECIAL)),
       seed=number)
@example(weights=",".join(str(k / 10) for k in range(11)), samples="1000000", seed="0")  # over the draw cap
@example(weights="0.5", samples="1000000000000", seed="0")
@example(weights="0.5", samples="10", seed="-1")
def test_variance_fuzz(weights, samples, seed):
    run(["variance", "--weights", weights, "--samples", samples, "--seed", seed])


# a config that trains in well under a second (n, depth, epochs and
# dataset_size are always set and small), with at most one field replaced
# by a value it must reject or may coerce (True, 1.5, 1e308)
step = st.sampled_from([1e-3, 0.1, 1.0])
bound = st.sampled_from([1e-3, 0.1, 1.0, 10.0])
small_config = st.fixed_dictionaries(
    {"n": st.integers(1, 3), "depth": st.integers(1, 3), "epochs": st.integers(1, 9),
     "dataset_size": st.integers(1, 40),
     "seeds": st.lists(st.integers(-2, 5), min_size=1, max_size=3)},
    optional={"batch_size": st.integers(1, 40), "lr": step, "fd_step": step, "b_target": bound,
              "b_models": st.lists(bound, min_size=1, max_size=3),
              "share_generator_basis": st.booleans()})
junk = st.sampled_from([None, "x", [], {}, True, 1.5, -3, 0, 1e13, 1e308, -1e308,
                        float("inf"), float("nan"), "1e13", [None], [1.5], [1e308]])
field = st.sampled_from(["n", "depth", "epochs", "dataset_size", "seeds", "batch_size",
                         "lr", "fd_step", "b_target", "b_models", "share_generator_basis",
                         "bogus"])
train_config = st.builds(lambda cfg, bad: dict(cfg, **dict(bad)), small_config,
                         st.lists(st.tuples(field, junk), max_size=1))
SMALL = {"n": 1, "depth": 1, "dataset_size": 1, "seeds": [0], "b_models": [1.0]}


@settings(derandomize=True, max_examples=80, deadline=None)
@given(config=train_config, form=st.sampled_from(["json", "key = value"]),
       extra=st.sampled_from(["", "# note", "n: 3", "{", "lr = [1,"]))
@example(config={"seeds": 5}, form="json", extra="")
@example(config={"lr": "x"}, form="json", extra="")
@example(config={"dataset_size": 1e13}, form="key = value", extra="")
@example(config={"dataset_size": 300000, "seeds": [0]}, form="json", extra="")  # amplitudes
@example(config={"epochs": 1e9}, form="json", extra="")                          # multiply-adds
@example(config=dict(SMALL, epochs=2 ** 21), form="key = value", extra="")      # steps
@example(config=dict(SMALL, epochs=1, share_generator_basis=float("nan")), form="json", extra="")
@example(config=dict(SMALL, epochs=1, lr=1e308), form="json", extra="")
@example(config=dict(SMALL, epochs=1, b_models=[1e308]), form="json", extra="")  # overflows
def test_train_config_fuzz(config, form, extra):
    if form == "json":
        text = json.dumps(config)
    else:
        text = "".join(f"{key} = {json.dumps(value)}\n" for key, value in config.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "train.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n" + extra + "\n")
        run(["train", "--config", path])
