import json
import os

import pytest

from fdzring.cli import main
from fdzring.corpus import NAMED_RINGS, z_mod
from fdzring.fomc import NESTING_GUARD, parse_formula
from fdzring.ringfile import RANK_LIMIT, RingFileError, parse_ring_text, serialize_ring
from fdzring.rings import FdzRing

from oracles import tarski_defined_set

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
    for builder in NAMED_RINGS.values():
        ring = builder()
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


def test_ring_file_rank_limit(capsys, tmp_path, monkeypatch):
    # a rank beyond the cap is refused before any rank^3 tensor is allocated
    import fdzring.ringfile as ringfile_module

    def no_ring(*_args, **_kwargs):
        raise AssertionError("a tensor was built")

    monkeypatch.setattr(ringfile_module, "validate_ring", no_ring)
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
