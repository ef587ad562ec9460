import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

from fdzring.cli import main
from fdzring.fomc import NESTING_GUARD, parse_formula
from fdzring.ringfile import RANK_LIMIT, RingFileError, parse_ring_text, serialize_ring
from fdzring.rings import FdzRing

from oracles import NAMED_RINGS, corpus_ring, tarski_defined_set, z_mod

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def corpus_path(name):
    return os.path.join(CORPUS, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def without_timing(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k != "timing_ms"}


def test_ring_file_roundtrip_named():
    for name in NAMED_RINGS:
        ring = corpus_ring(name)
        text = serialize_ring(ring)
        assert parse_ring_text(text) == ring
        # serialization is canonical: a second pass is byte identical
        assert serialize_ring(parse_ring_text(text)) == text


def test_ring_file_comments_and_defaults():
    ring = parse_ring_text("# hi\nrank: 2\norders: 0 0\n")
    assert ring.orders == (0, 0)
    assert all(not any(v) for row in ring.tensor for v in row)


def test_ring_file_errors():
    with pytest.raises(RingFileError):
        parse_ring_text("orders: 1\n")
    with pytest.raises(RingFileError):
        parse_ring_text("rank: 1\norders: 0 0\n")
    with pytest.raises(RingFileError):
        parse_ring_text("rank: 1\norders: 0\nmult 1 2 : 1\n")
    with pytest.raises(RingFileError):
        parse_ring_text("rank: one\norders: 0\n")


def test_ring_file_duplicate_product(capsys, tmp_path):
    text = "rank: 1\norders: 0\nmult 1 1 : 1\nmult 1 1 : 2\n"
    with pytest.raises(RingFileError, match=r"^line 4: duplicate product \(1, 1\)$"):
        parse_ring_text(text)
    duplicate = tmp_path / "duplicate.ring"
    duplicate.write_text(text)
    code, out, err = run(capsys, "analyze", str(duplicate))
    assert code == 2 and not out and "duplicate product (1, 1)" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("rank: 1\norders: 0\nrank: 2\n", "line 3: repeated 'rank:' header"),
        ("rank: 1\norders: 0\n# a comment\norders: 2\n", "line 4: repeated 'orders:' header"),
    ],
    ids=["rank", "orders"],
)
def test_ring_file_repeated_header(capsys, tmp_path, text, message):
    # a second header would silently replace the first, so it is refused
    with pytest.raises(RingFileError, match=f"^{message}$"):
        parse_ring_text(text)
    repeated = tmp_path / "repeated.ring"
    repeated.write_text(text)
    code, out, err = run(capsys, "analyze", str(repeated))
    assert code == 2 and not out and message in err


def test_ring_file_rank_limit(capsys, tmp_path, monkeypatch):
    # a rank beyond the cap is refused before any rank^3 tensor is allocated
    import fdzring.ringfile as ringfile_module

    def no_ring(*_args, **_kwargs):
        raise AssertionError("a tensor was built")

    monkeypatch.setattr(ringfile_module, "FdzRing", no_ring)
    huge = "rank: 100000\norders: " + " ".join(["0"] * 100_000) + "\n"
    with pytest.raises(RingFileError, match=r"^line 1: rank 100000 exceeds the limit of 64$"):
        parse_ring_text(huge)
    path = tmp_path / "huge.ring"
    path.write_text(huge)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and not out and "exceeds the limit" in err
    monkeypatch.undo()
    at_limit = f"rank: {RANK_LIMIT}\norders: " + " ".join(["2"] * RANK_LIMIT) + "\n"
    assert parse_ring_text(at_limit).rank == RANK_LIMIT


def test_corpus_files_parse_and_validate():
    for name in os.listdir(CORPUS):
        assert name.endswith(".ring")
        with open(corpus_path(name), encoding="utf-8") as handle:
            ring = parse_ring_text(handle.read())
        assert isinstance(ring, FdzRing)


def test_classify_z0(capsys):
    code, out, _ = run(capsys, "classify", corpus_path("z0.ring"))
    assert code == 0
    payload = json.loads(out)
    report = payload["classification"]
    assert report["tame"] is False
    assert report["qfa"] == "no"
    assert report["bi_interpretable"] == "no"
    assert all(
        value in ("yes", "no", "unknown", "not_applicable")
        for key, value in report.items()
        if key in ("qfa", "super_tame", "bi_interpretable", "first_order_rigid_hint")
    )


def test_analyze_w(capsys):
    code, out, _ = run(capsys, "analyze", corpus_path("w.ring"))
    assert code == 0
    payload = json.loads(out)
    assert payload["ideal_chain"]["n"]["invariant_factors"] == [2]
    assert payload["predicates"] == {"tame": False, "regular": False}


def test_eqcheck_reason(capsys):
    code, out, _ = run(capsys, "eqcheck", corpus_path("z.ring"), corpus_path("twoz.ring"))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "not_equivalent"
    assert "mod_square" in payload["reason"]


def test_eqcheck_equivalent(capsys):
    code, out, _ = run(capsys, "eqcheck", corpus_path("w.ring"), corpus_path("w.ring"))
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "equivalent"
    assert payload["witness"] is not None


def test_modelcheck_builtin(capsys):
    code, out, _ = run(
        capsys,
        "modelcheck",
        corpus_path("w.ring"),
        "--mod",
        "2",
        "--builtin",
        "theta,k=3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "defined_set"
    assert payload["elements"] == [[0, 0, 0], [0, 0, 1]]


def test_modelcheck_formula_file(capsys, tmp_path):
    formula = tmp_path / "f.formula"
    formula.write_text("(forall y (eq (mul y y) (mul y y)))")
    code, out, _ = run(
        capsys, "modelcheck", corpus_path("z.ring"), "--mod", "3", "--formula", str(formula)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "truth" and payload["value"] is True


def test_modelcheck_nesting_guard(capsys, tmp_path):
    def nested(depth):
        # depth levels of parentheses: negations around a three-level core
        return "(not " * (depth - 3) + "(exists y (eq x (mul y y)))" + ")" * (depth - 3)

    def modelcheck(text):
        path = tmp_path / "f.formula"
        path.write_text(text)
        return run(capsys, "modelcheck", corpus_path("z4.ring"), "--formula", str(path))

    code, out, _ = modelcheck(nested(NESTING_GUARD))
    assert code == 0
    plain = tarski_defined_set(z_mod(4), parse_formula(nested(NESTING_GUARD)))
    assert json.loads(out)["elements"] == [list(e) for e in plain] == [[2], [3]]
    for depth in (NESTING_GUARD + 1, 3000):
        code, out, err = modelcheck(nested(depth))
        assert code == 2 and not out and "nested deeper" in err


W_COCYCLE = ["deform", corpus_path("w.ring"), "--g"]
W_MOD2 = ["modelcheck", corpus_path("w.ring"), "--mod", "2"]
INT_ERROR = "invalid literal for int() with base 10: "
USAGE_ERRORS = {
    "g_unknown_field": (W_COCYCLE + ["x=1"], "unknown cocycle field 'x'"),
    "g_bad_int": (W_COCYCLE + ["e=two"], f"bad cocycle syntax: {INT_ERROR}'two'"),
    "g_missing_value": (W_COCYCLE + ["e=2"], "the cocycle needs both e=ORDER and d=C1:...:CR"),
    "g_empty": (W_COCYCLE + [""], "the cocycle needs both e=ORDER and d=C1:...:CR"),
    "g_repeated_order": (W_COCYCLE + ["e=2,e=3,d=0:1:0"], "repeated cocycle field 'e'"),
    "g_repeated_factor": (W_COCYCLE + ["e=2,d=0:1:0,factor=1,factor=1"], "repeated cocycle field 'factor'"),
    "g_factor_range": (
        W_COCYCLE + ["e=2,d=0:1:0,factor=9"],
        "factor 9 out of range; the torsion quotient has 1 cyclic factors",
    ),
    "g_factor_order": (W_COCYCLE + ["e=3,d=0:1:0"], "factor 1 has order 2, not 3"),
    "g_value_length": (W_COCYCLE + ["e=2,d=0:1"], "the cocycle value must be an ambient vector"),
    "builtin_no_k": (W_MOD2 + ["--builtin", "theta"], "expected --builtin NAME,k=N"),
    "builtin_bad_k": (W_MOD2 + ["--builtin", "theta,k=x"], f"bad builtin arity: {INT_ERROR}'x'"),
    "builtin_wrong_key": (W_MOD2 + ["--builtin", "theta,j=2"], "expected --builtin NAME,k=N"),
    "builtin_k_zero": (
        ["modelcheck", corpus_path("w.ring"), "--mod", "3", "--builtin", "phi,k=0"],
        "builtin phi needs k at least 1, got k=0",
    ),
    # a list in operator position is a parse error, not an internal one
    "formula_list_term_head": (
        W_MOD2 + ["--formula", "(eq ((add x x) y) 0)"],
        "bad term operator: [['add', 'x', 'x'], 'y']",
    ),
    "formula_list_formula_head": (
        W_MOD2 + ["--formula", "((eq x x))"],
        "bad formula operator: [['eq', 'x', 'x']]",
    ),
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_errors_exit_2(capsys, tmp_path, name):
    argv, message = USAGE_ERRORS[name]
    if argv[-2] == "--formula":
        path = tmp_path / "f.formula"
        path.write_text(argv[-1])
        argv = argv[:-1] + [str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_corpus_of_an_empty_directory_exits_2(capsys, tmp_path):
    (tmp_path / "notes.txt").write_text("no rings here")
    code, out, err = run(capsys, "corpus", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: no .ring files in {str(tmp_path)!r}\n")


def test_modelcheck_requires_finite(capsys):
    code, _, err = run(capsys, "modelcheck", corpus_path("z.ring"), "--builtin", "phi,k=1")
    assert code == 2
    assert "finite" in err


def test_deform_cli(capsys):
    code, out, _ = run(
        capsys,
        "deform",
        corpus_path("w.ring"),
        "--g",
        "e=2,d=0:1:0",
        "--check-sixterm",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["profile_match"] is True
    assert payload["sixterm"]["status"] == "commutes"
    deformed = parse_ring_text(payload["ring_file"])
    assert deformed.order is None


def test_deform_builds_one_context(capsys, monkeypatch):
    # the context that translates --g is the one the deformation is built on
    import fdzring.deform as deform

    built = []
    init = deform.DeformationContext.__init__

    def counted(self, base):
        built.append(base)
        init(self, base)

    monkeypatch.setattr(deform.DeformationContext, "__init__", counted)
    w = corpus_path("w.ring")
    for extra in ((), ("--g", "e=2,d=0:1:0")):
        built.clear()
        code, out, _ = run(capsys, "deform", w, *extra, "--check-sixterm")
        assert code == 0 and json.loads(out)["sixterm"]["status"] == "commutes"
        assert len(built) == 1, extra


def test_pf_cli(capsys):
    code, out, _ = run(capsys, "pf", corpus_path("zx2.ring"))
    assert code == 0
    payload = json.loads(out)
    pf_ring_text = payload["pf"]["ring_file"]
    assert parse_ring_text(pf_ring_text).orders == (0, 0)
    assert payload["pa"]["inside_pf"] is not None


def test_pf_builds_the_pf_action_once(capsys, monkeypatch):
    # the pf action is pa's parent: one induced map and one pair lattice,
    # then the pf and the pa action, each built once
    import fdzring.bilinear as bilinear

    calls = dict.fromkeys(("induced_bilinear_map", "_pair_lattice", "_build_action"), 0)
    for name in calls:
        def counted(*args, name=name, original=getattr(bilinear, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(bilinear, name, counted)
    code, _, _ = run(capsys, "pf", corpus_path("zx2.ring"))
    assert code == 0
    assert calls == {"induced_bilinear_map": 1, "_pair_lattice": 1, "_build_action": 2}


def test_corpus_command(capsys):
    code, out, _ = run(capsys, "corpus", CORPUS)
    assert code == 0
    payload = json.loads(out)
    names = [entry["file"] for entry in payload["corpus"]]
    assert names == sorted(names)
    assert {"z.ring", "twoz.ring", "z0.ring", "zxz0.ring", "w.ring", "zx2.ring"} <= set(names)
    by_name = {entry["file"]: entry["classification"] for entry in payload["corpus"]}
    assert by_name["z.ring"]["bi_interpretable"] == "yes"
    assert by_name["z0.ring"]["qfa"] == "no"
    assert by_name["z4.ring"]["qfa"] == "not_applicable"


def test_pf_refuses_null_line(capsys):
    # the scalar ring is undefined when the pairing degenerates
    code, _, err = run(capsys, "pf", corpus_path("z0.ring"))
    assert code == 3 and "undefined" in err


def test_exit_codes(capsys, tmp_path):
    garbage = tmp_path / "bad.ring"
    garbage.write_text("this is not a ring file\n")
    code, _, err = run(capsys, "analyze", str(garbage))
    assert code == 2 and err

    invalid = tmp_path / "invalid.ring"
    invalid.write_text("rank: 2\norders: 2 0\nmult 1 1 : 0 1\n")
    code, _, err = run(capsys, "analyze", str(invalid))
    assert code == 3 and err

    missing = tmp_path / "missing.ring"
    code, _, err = run(capsys, "analyze", str(missing))
    assert code == 2


def test_exit_codes_unreadable_paths(capsys, tmp_path):
    binary = tmp_path / "binary.ring"
    binary.write_bytes(b"rank: 1\norders: 0\nmult 1 1 : 1\n\xff\n")
    probes = [
        ("analyze", CORPUS),
        ("analyze", str(binary)),
        ("corpus", corpus_path("w.ring")),
        ("modelcheck", corpus_path("w.ring"), "--mod", "2", "--formula", CORPUS),
    ]
    for argv in probes:
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: "), argv


VERDICT = {"enum": ["yes", "no", "unknown", "not_applicable"]}

CLASSIFY_SCHEMA = {
    "type": "object",
    "required": ["input", "ideal_chain_invariants", "predicates", "classification", "timing_ms"],
    "properties": {
        "input": {
            "type": "object",
            "required": ["file", "rank", "orders", "order"],
            "properties": {
                "file": {"type": "string"},
                "rank": {"type": "integer"},
                "orders": {"type": "array", "items": {"type": "integer"}},
                "order": {"type": ["integer", "null"]},
            },
        },
        "ideal_chain_invariants": {
            "type": "object",
            "required": ["ann", "square", "delta", "k", "l", "o", "m", "n"],
            "additionalProperties": {
                "type": "array",
                "items": {"type": "integer"},
            },
        },
        "predicates": {
            "type": "object",
            "required": ["tame", "regular"],
            "properties": {
                "tame": {"type": "boolean"},
                "regular": {"type": "boolean"},
            },
        },
        "classification": {
            "type": "object",
            "required": [
                "infinite",
                "tame",
                "regular",
                "qfa",
                "first_order_rigid_hint",
                "super_tame",
                "bi_interpretable",
                "justifications",
            ],
            "properties": {
                "infinite": {"type": "boolean"},
                "tame": {"type": "boolean"},
                "regular": {"type": "boolean"},
                "qfa": VERDICT,
                "first_order_rigid_hint": VERDICT,
                "super_tame": VERDICT,
                "bi_interpretable": VERDICT,
                "justifications": {"type": "array", "items": {"type": "string"}},
            },
        },
        "timing_ms": {"type": "number"},
    },
}


def test_classify_reports_validate_against_schema(capsys):
    import jsonschema

    from fdzring.classify import CITATION_TAGS

    for name in sorted(n for n in os.listdir(CORPUS) if n.endswith(".ring")):
        code, out, _ = run(capsys, "classify", corpus_path(name))
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, CLASSIFY_SCHEMA)
        for line in payload["classification"]["justifications"]:
            assert line.split(": ")[-1] in CITATION_TAGS, line


def test_exit_code_internal_failure(capsys, monkeypatch):
    # the classify subcommand imports classify_ring from its module per call
    import fdzring.classify as classify_module

    def boom(*_args, **_kwargs):
        raise AssertionError("synthetic")

    monkeypatch.setattr(classify_module, "classify_ring", boom)
    code, _, err = run(capsys, "classify", corpus_path("z.ring"))
    assert code == 4 and "internal" in err


def test_exit_code_refused_deformation(capsys):
    # e1 of W squares to t, so it lies outside the annihilator
    code, out, err = run(capsys, "deform", corpus_path("w.ring"), "--g", "e=2,d=1:0:0")
    assert code == 3 and not out and "annihilator" in err


def test_modelcheck_builtin_nesting_guard(capsys):
    # the largest arity of each builtin whose formula nests at most
    # NESTING_GUARD deep still evaluates; one more, or far more, is refused
    largest = {"theta": 66, "phi": 39, "psi": 98}
    for name, k in largest.items():
        argv = ("modelcheck", corpus_path("w.ring"), "--mod", "2", "--builtin")
        code, out, _ = run(capsys, *argv, f"{name},k={k}")
        assert code == 0 and json.loads(out)["source"] == {"builtin": name, "k": k}
        for big in (k + 1, 300, 100_000):
            code, out, err = run(capsys, *argv, f"{name},k={big}")
            assert code == 2 and not out and f"beyond the limit {NESTING_GUARD}" in err, (name, big)


def test_eqcheck_refuses_bound_below_one(capsys):
    zx2 = corpus_path("zx2.ring")
    for bound in ("0", "-3"):
        code, out, err = run(capsys, "eqcheck", zx2, zx2, "--bound", bound)
        assert code == 2 and not out and "--bound" in err
    code, out, _ = run(capsys, "eqcheck", zx2, zx2, "--bound", "1")
    assert code == 0 and json.loads(out)["verdict"] == "equivalent"


def test_seeded_eqcheck_refuses_a_pool_above_the_guard(capsys):
    z = corpus_path("z.ring")
    code, out, err = run(capsys, "--seed", "1", "eqcheck", z, z, "--bound", "1000")
    assert code == 2 and not out and "SEEDED_POOL_LIMIT" in err
    code, out, _ = run(capsys, "eqcheck", z, z, "--bound", "1000")
    assert code == 0 and json.loads(out)["verdict"] == "equivalent"


def child_env():
    """The environment of a child interpreter that imports this checkout's ``src``."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_capped(*argv):
    """The CLI in a child process under a 1 GiB address-space cap."""
    resource = pytest.importorskip("resource")

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "fdzring.cli", *argv],
        env=child_env(), capture_output=True, text=True, preexec_fn=capped, timeout=120,
    )


def test_eqcheck_bound_sizes_no_allocation():
    # under a 1 GiB address-space cap, a bound of 10^9 neither builds its
    # coefficient list (seed 0 clamps it to the node budget) nor sizes the
    # seeded pool by building it (the guard refuses from the orders alone)
    z = corpus_path("z.ring")
    argv = ["eqcheck", z, z, "--bound", "1000000000"]
    for seed, code in ((), 0), (("--seed", "1"), 2):
        done = run_capped(*seed, *argv)
        assert done.returncode == code, (seed, done.stderr)
        if code == 0:
            assert json.loads(done.stdout)["verdict"] == "unknown"
        else:
            assert "SEEDED_POOL_LIMIT" in done.stderr and not done.stdout


HUGE_P = 100_000_007
HUGE_TORSION = {
    # Z/p with e·e = e, Z + Z/p, and F_p x F_p
    "zp": (f"rank: 1\norders: {HUGE_P}\nmult 1 1 : 1\n", "equivalent", "commutes"),
    "zzp": (
        f"rank: 2\norders: 0 {HUGE_P}\nmult 1 1 : 1 1\nmult 1 2 : 0 1\nmult 2 1 : 0 1\nmult 2 2 : 0 1\n",
        "unknown",
        "commutes",
    ),
    "fpfp": (f"rank: 2\norders: {HUGE_P} {HUGE_P}\nmult 1 1 : 1 0\nmult 2 2 : 0 1\n", "unknown", "unknown"),
    # orders of 2^63 and more, whose ranges ``len`` refuses: Z/(2^63+1) with
    # e·e = e, and Z + Z/(2^64+1) shaped like zzp
    "z2_63": (f"rank: 1\norders: {2**63 + 1}\nmult 1 1 : 1\n", "equivalent", "commutes"),
    "zz2_64": (
        f"rank: 2\norders: 0 {2**64 + 1}\nmult 1 1 : 1 1\nmult 1 2 : 0 1\nmult 2 1 : 0 1\nmult 2 2 : 0 1\n",
        "unknown",
        "commutes",
    ),
}


@pytest.mark.parametrize("name", sorted(HUGE_TORSION))
def test_huge_torsion_searches_build_no_range(tmp_path, name):
    # a Z/p coordinate ranges over the multiples of p/gcd(order, p), walked
    # lazily, and an order-0 pool skips the heads with no nonzero free
    # coordinate, so under a 1 GiB cap neither search lists [0, p); the
    # range sizes are computed, never measured, so p >= 2^63 runs too
    text, verdict, status = HUGE_TORSION[name]
    path = tmp_path / f"{name}.ring"
    path.write_text(text)
    done = run_capped("eqcheck", str(path), str(path))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["verdict"] == verdict
    done = run_capped("deform", str(path), "--check-sixterm")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["sixterm"]["status"] == status
    done = run_capped("--seed", "1", "eqcheck", str(path), str(path))
    assert done.returncode == 2 and "SEEDED_POOL_LIMIT" in done.stderr and not done.stdout


@pytest.mark.parametrize("enabled", [True, False])
def test_main_with_an_argument_list_leaves_the_collector_alone(capsys, enabled):
    # only the program owns the collector: a call from Python, ending in a
    # report or in an error, changes neither whether it runs nor what it froze
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        report = ["deform", corpus_path("w.ring"), "--check-sixterm"]
        for argv, exit_code in (report, 0), (W_COCYCLE + ["x=1"], 2):
            assert run(capsys, *argv)[0] == exit_code
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if before else gc.disable)()


FREEZE_PROBE = (
    "import gc, json, sys\n"
    "from fdzring.cli import main\n"
    "sys.argv = ['fdzring', 'analyze', {path!r}]\n"
    "frozen = gc.get_freeze_count()\n"
    "code = main()\n"
    "print(json.dumps([code, frozen, gc.get_freeze_count(), gc.isenabled()]), file=sys.stderr)\n"
)


def test_main_run_as_the_program_freezes_its_start_up_objects():
    probe = FREEZE_PROBE.format(path=corpus_path("w.ring"))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, timeout=120
    )
    code, before, after, enabled = json.loads(done.stderr)
    assert (code, before, enabled) == (0, 0, True)
    assert after > 0
    assert json.loads(done.stdout)["input"]["rank"] == 3


def test_a_reader_leaving_early_is_not_an_error(tmp_path):
    # 16 copies of the corpus make a report larger than a pipe's buffer, so
    # the child is still writing when the reader closes its end
    for copy in range(16):
        for name in os.listdir(CORPUS):
            shutil.copy(os.path.join(CORPUS, name), tmp_path / f"{copy}_{name}")
    child = subprocess.Popen(
        [sys.executable, "-m", "fdzring.cli", "corpus", str(tmp_path)],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert child.stdout.read(10) == b'{\n  "corpu'
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=120), err) == (0, b"")


def test_modelcheck_rejects_bad_mod(capsys):
    code, _, err = run(
        capsys, "modelcheck", corpus_path("z.ring"), "--mod", "0", "--builtin", "phi,k=1"
    )
    assert code == 2 and err


def test_seed_flag_accepted(capsys):
    # a reordered search stays deterministic and sound, and a ring compared
    # with itself is equivalent under any search order
    runs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "--seed", "3", "eqcheck", corpus_path("z4.ring"), corpus_path("z4.ring")
        )
        assert code == 0
        runs.append(without_timing(json.loads(out)))
    assert runs[0] == runs[1]
    assert runs[0]["verdict"] == "equivalent"


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "classify", corpus_path("w.ring"))
    _, second, _ = run(capsys, "classify", corpus_path("w.ring"))
    assert without_timing(json.loads(first)) == without_timing(json.loads(second))
    _, a1, _ = run(capsys, "analyze", corpus_path("zx2.ring"))
    _, a2, _ = run(capsys, "analyze", corpus_path("zx2.ring"))
    assert without_timing(json.loads(a1)) == without_timing(json.loads(a2))
