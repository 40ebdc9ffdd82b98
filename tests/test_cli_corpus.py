"""The CLI's bytes, pinned in one committed table.

``tests/data/cli_corpus.json`` holds one row per call of a seeded argv set
over all nine subcommands: the argv, the exit code and the sha256 of
(exit code, stdout, stderr).  The documents are ``tests/data/*`` plus
generated integer, one-decimal, near-overflow, ``-inf``-heavy and malformed
ones.  Each call runs in process, in a temporary directory that holds the
documents and with ``COLUMNS`` fixed, so no absolute path and no terminal
width enters a hash.  A row whose output argparse writes (a usage error or
``--help``, worded differently across Python versions) pins only its exit
code; its ``sha256`` is null.

    python tests/test_cli_corpus.py

rewrites the table from the current code.  A change that moves a row lists
it in CHANGES.md with the exact oracle's verdict on the old and new bytes.
"""

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
TABLE = HERE / "data" / "cli_corpus.json"
DATA_FILES = ("fig1.json", "rec.json", "face_set.json", "face_face.json", "face_halfspace.json")
KINDS = ("int", "tenths", "huge", "neginf")
TOLERANCES = ("0", "1e-5", "0.5")
GRIDS = ("3", "20", "40")
NEG = "-inf"


def _scalar(rng, kind):
    """A finite coordinate: an integer, k/10, or k * 1.7e307 (up to 1.53e308)."""
    k = rng.randint(-9, 9)
    if kind == "tenths":
        return k / 10
    if kind == "huge":
        return k * 1.7e307
    return k


def _vector(rng, n, kind):
    """n coordinates, some -inf (half of them for ``neginf``), at least one finite."""
    p_zero = 0.5 if kind == "neginf" else 0.15
    v = [NEG if rng.random() < p_zero else _scalar(rng, kind) for _ in range(n)]
    v[rng.randrange(n)] = _scalar(rng, kind)
    return v


def _combine(vectors, coeffs):
    """max_k (coeffs[k] + vectors[k]) in floats; a sum may overflow to inf."""
    out = [-math.inf] * len(vectors[0])
    for v, lam in zip(vectors, coeffs):
        for i, c in enumerate(v):
            if c != NEG:
                out[i] = max(out[i], c + lam)
    return [NEG if c == -math.inf else c for c in out]


def _below_zero(rng, kind):
    """A convex-combination weight: <= 0, and never -0.0."""
    return -abs(_scalar(rng, kind)) or 0


def _geometry(rng, n, kind):
    """(cone, cone member, set, set member) documents of dimension n, with
    redundant generators and points."""
    base = [_vector(rng, n, kind) for _ in range(rng.randint(1, 4))]
    gens = list(base)
    for _ in range(rng.randint(0, 2)):
        picked = rng.sample(base, min(2, len(base)))
        gens.append(_combine(picked, [_scalar(rng, kind) for _ in picked]))
    rng.shuffle(gens)
    picked = rng.sample(gens, rng.randint(1, len(gens)))
    cone_x = _combine(picked, [_scalar(rng, kind) for _ in picked])

    points = [_vector(rng, n, kind) for _ in range(rng.randint(1, 4))]
    rays = [_vector(rng, n, kind) for _ in range(rng.randint(0, 2))]
    if len(points) > 1:
        points.append(_combine(points[:2], [0, _below_zero(rng, kind)]))
    weights = [0] + [_below_zero(rng, kind) for _ in points[1:]]
    set_x = _combine(points + rays, weights + [_scalar(rng, kind) for _ in rays])
    return {"generators": gens}, cone_x, {"points": points, "rays": rays}, set_x


def _halfspace(rng, n, kind):
    def part():
        coeffs = [NEG if rng.random() < 0.3 else _scalar(rng, kind) for _ in range(n)]
        return {"coeffs": coeffs, "const": NEG if rng.random() < 0.3 else _scalar(rng, kind)}

    return {"plus": part(), "minus": part()}


# values that are not a finite number or "-inf"; inf and nan are written as
# the Infinity and NaN tokens, which json.load reads back
ODD = [True, None, "x", "", "inf", [], {}, [0], {"a": 1}, math.inf, math.nan, 10**400]


def _corrupt(rng, doc):
    """A copy of doc with one value replaced by an ODD one or one field removed."""
    if rng.random() < 0.1:
        return rng.choice(ODD)
    doc = json.loads(json.dumps(doc))
    slots = []

    def walk(node):
        for key in (node if isinstance(node, dict) else range(len(node))):
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                walk(node[key])

    walk(doc)
    node, key = rng.choice(slots)
    if isinstance(node, dict) and rng.random() < 0.3:
        del node[key]
    else:
        node[key] = rng.choice(ODD)
    return doc


# the 13 file-reading command forms: argv before the file, the kind of
# document the file holds, and whether the form takes --x
FORMS = [
    (["member", "--cone"], "cone", True),
    (["member", "--set"], "set", True),
    (["basis", "--cone"], "cone", False),
    (["decompose", "--cone"], "cone", True),
    (["decompose", "--set"], "set", True),
    (["extreme-points", "--set"], "set", False),
    (["recession", "--set"], "set", False),
    (["homogenize", "--set"], "set", False),
    (["minkowski-verify", "--set"], "set", False),
    (["halfspace-check", "--halfspace"], "halfspace", True),
    (["halfspace-check", "--halfspace", "data/face_halfspace.json", "--set"], "set", False),
    (["render", "--grid", "3", "--cone"], "cone", False),
    (["render", "--grid", "3", "--set"], "set", False),
]

# documents the CLI tests use, written out by name
FIXED = {
    "zero-gen.json": {"generators": [[0, 1], [NEG, NEG], [2, 0]]},
    "zero-ray.json": {"points": [[0, 1]], "rays": [[NEG, NEG], [1, 0]]},
    "ray-only.json": {"points": [[0, 0]], "rays": [[NEG, 0]]},
    "decimal-cone.json": {"generators": [[0.2, -0.4]]},
    "unattained.json": {"generators": [[-0.2, 0.6], [-0.4, 0.7], [0.5, -0.3]]},
    "relax-hs.json": {"plus": {"coeffs": [0, NEG], "const": NEG},
                      "minus": {"coeffs": [NEG, 0], "const": NEG}},
    "relax-set.json": {"points": [[0, 0]], "rays": [[0, 0.5]]},
    "overflow-hs.json": {"plus": {"coeffs": [1e308, 0], "const": 0},
                         "minus": {"coeffs": [0, 0], "const": NEG}},
    "overflow-points.json": {"points": [[0, 0], [1e308, 0]]},
    "overflow-rays.json": {"points": [[0, 0]], "rays": [[1e308, 0]]},
    "wide-frame.json": {"points": [[-1.7e308, 0], [1.7e308, 0]]},
    "far-origin.json": {"points": [[1e308, 1e308]]},
    "flat-frame.json": {"points": [[1e307, 1e307], [1e307, NEG]]},
    "set3.json": {"points": [[0, 1, 2]]},
    "wrong-schema.json": {"gens": [[0, 1]]},
    "dim-float.json": {"generators": [], "dim": 2.5},
    "dim-bool.json": {"generators": [], "dim": True},
    "dim-3.json": {"generators": [], "dim": 3},
}
# documents that are not JSON, or JSON that no float holds
RAW = {
    "not-json.json": "{not json",
    "empty.json": "",
    "truncated.json": '{"generators": [[0, 1]',
    "deep.json": "[" * 100_000,
    "huge-int.json": '{"generators": [[' + "9" * 400 + ", 0]]}",
}


def documents() -> dict:
    """File name -> text of every generated document."""
    rng = random.Random(20260516)
    docs = {name: json.dumps(doc) for name, doc in FIXED.items()}
    docs.update(RAW)
    for kind in KINDS:
        for j in range(6):
            n = rng.choice((2, 2, 3, 4))
            cone, cone_x, cset, set_x = _geometry(rng, n, kind)
            stem = f"{kind}-{j}"
            docs[f"{stem}-cone.json"] = json.dumps(cone)
            docs[f"{stem}-set.json"] = json.dumps(cset)
            docs[f"{stem}-hs.json"] = json.dumps(_halfspace(rng, n, kind))
            docs[f"{stem}-hs-set.json"] = json.dumps(_geometry(rng, n, kind)[2])
            docs[f"{stem}-x.json"] = json.dumps(
                [cone_x, _vector(rng, n, kind), set_x, _vector(rng, n, kind),
                 _vector(rng, n, kind)]
            )
    sources = {"cone": FIXED["zero-gen.json"], "set": FIXED["zero-ray.json"],
               "halfspace": FIXED["relax-hs.json"]}
    for f, (_, kind, _) in enumerate(FORMS):
        for j in range(6):
            docs[f"odd-{f}-{j}.json"] = json.dumps(_corrupt(rng, sources[kind]))
    return docs


def _fixed_argvs() -> list:
    """The CLI tests' calls on tests/data and on FIXED, and its usage errors."""
    fig1, rec, hs = "data/fig1.json", "data/rec.json", "data/face_halfspace.json"
    argvs = [
        ["member", "--cone", rec, "--x", "[3,0]"],
        ["member", "--cone", rec, "--x", "[2,1]"],
        ["member", "--cone", rec, "--x", "[2.0000001,1]", "--tolerance", "1e-5"],
        ["member", "--cone", rec, "--x", "[3,0.5]", "--tolerance", "0.5"],
        ["member", "--cone", rec, "--x", "[3,0.5]"],
        ["member", "--set", fig1, "--x", "[5,2]"],
        ["member", "--set", fig1, "--x", "[0,0]"],
        ["member", "--set", fig1, "--x", "[5.0000001,2]", "--tolerance", "1e-5"],
        ["member", "--set", fig1, "--x", '["-inf",3]', "--tolerance", "1e9"],
        ["member", "--set", "ray-only.json", "--x", '["-inf",5]', "--tolerance", "1e9"],
        ["member", "--set", fig1, "--x", "[1,2,3]"],
        ["member", "--x", "[1,2]"],
        ["member", "--cone", rec, "--set", fig1, "--x", "[1,2]"],
        ["member", "--cone", rec, "--x", '[1,"nope"]'],
        ["member", "--cone", rec, "--x", "[]"],
        ["member", "--cone", rec, "--x", "{}"],
        ["member", "--cone", rec, "--x", "[NaN,0]"],
        ["member", "--cone", rec, "--x", "[Infinity,0]"],
        ["member", "--cone", rec, "--x", "[" + "9" * 400 + ", 0]"],
        ["member", "--cone", rec, "--x", "not json"],
        ["member", "--cone", "decimal-cone.json", "--x", "[0.4, -0.2]"],
        ["basis", "--cone", rec],
        ["basis", "--cone", "zero-gen.json"],
        ["basis", "--cone", "missing.json"],
        ["basis", "--cone", "wrong-schema.json"],
        ["basis", "--cone", "dim-float.json"],
        ["basis", "--cone", "dim-bool.json"],
        ["basis", "--cone", "dim-3.json"],
        ["basis", "--cone", rec, "--out", "missing/x.out"],
        ["basis", "--cone", rec, "--out", "."],
        ["decompose", "--set", fig1, "--x", "[5,5]"],
        ["decompose", "--set", fig1, "--x", "[0,0]"],
        ["decompose", "--set", fig1, "--x", "[0,9]"],
        ["decompose", "--set", fig1, "--x", "[1,2,3]"],
        ["decompose", "--cone", rec, "--x", "[3,4]"],
        ["decompose", "--cone", rec, "--x", "[2,1]"],
        ["decompose", "--cone", "decimal-cone.json", "--x", "[0.4, -0.2]"],
        ["decompose", "--cone", "unattained.json", "--x", "[-0.3, 0.7]"],
        ["recession", "--set", "zero-ray.json"],
        ["halfspace-check", "--halfspace", hs, "--x", "[0,-1]"],
        ["halfspace-check", "--halfspace", hs, "--x", "[0,-1]", "--side", "minus",
         "--tolerance", "0.5"],
        ["halfspace-check", "--halfspace", hs, "--x", "[0,0,0,0,0]"],
        ["halfspace-check", "--halfspace", hs, "--set", "set3.json"],
        ["halfspace-check", "--halfspace", hs],
        ["halfspace-check", "--halfspace", hs, "--x", "[0,-1]", "--set", "data/face_set.json"],
        ["halfspace-check", "--halfspace", "deep.json", "--x", "[0,0]"],
        ["halfspace-check", "--halfspace", "overflow-hs.json", "--x", "[1e308,0]"],
        ["halfspace-check", "--halfspace", "overflow-hs.json", "--x", "[1e308,0]",
         "--side", "minus"],
        ["halfspace-check", "--halfspace", "overflow-hs.json", "--x", "[1,0]",
         "--tolerance", "1.7e308"],
        ["halfspace-check", "--halfspace", "overflow-hs.json", "--set", "overflow-points.json"],
        ["halfspace-check", "--halfspace", "overflow-hs.json", "--set", "overflow-rays.json"],
        ["render", "--set", fig1],
        ["render", "--set", fig1, "--grid", "40"],
        ["render", "--set", fig1, "--grid", "30"],
        ["render", "--set", fig1, "--grid", "1"],
        ["render", "--set", fig1, "--grid", "0"],
        ["render", "--set", fig1, "--grid", "-3"],
        ["render", "--cone", rec],
        ["render", "--cone", rec, "--grid", "20"],
        ["render", "--cone", rec, "--grid", "4"],
        ["render", "--cone", "dim-float.json", "--grid", "2"],
        ["render", "--cone", "dim-3.json", "--grid", "2"],
        ["render", "--set", "wide-frame.json"],
        ["render", "--set", "far-origin.json"],
        ["render", "--set", "flat-frame.json"],
        ["render", "--set", "set3.json"],
        ["render", "--set", fig1, "--grid", "2", "--out", "missing/x.out"],
    ]
    for name in ("not-json.json", "empty.json", "truncated.json", "deep.json", "huge-int.json"):
        argvs += [["basis", "--cone", name], ["recession", "--set", name]]
    for s in ("data/fig1.json", "data/face_set.json", "data/face_face.json"):
        argvs += [
            ["member", "--set", s, "--x", "[0,-1]"],
            ["decompose", "--set", s, "--x", "[0,-1]"],
            ["extreme-points", "--set", s],
            ["recession", "--set", s],
            ["homogenize", "--set", s],
            ["minkowski-verify", "--set", s],
            ["halfspace-check", "--halfspace", hs, "--set", s],
            ["halfspace-check", "--halfspace", hs, "--set", s, "--side", "minus"],
            ["render", "--set", s, "--grid", "4"],
        ]
    for tolerance in ("0", "0.4", "1"):
        argvs.append(["halfspace-check", "--halfspace", "relax-hs.json", "--set",
                      "relax-set.json", "--tolerance", tolerance])
    # argparse writes these: only their exit codes are pinned
    argvs += [
        [],
        ["nope"],
        ["--help"],
        ["member", "--help"],
        ["render", "--help"],
        ["member", "--cone", rec],
        ["basis", "--cone", rec, "--nope"],
        ["basis", "--cone", rec, "--tolerance", "0"],
        ["render", "--set", fig1, "--grid", "abc"],
        ["halfspace-check", "--halfspace", hs, "--x", "[0,0]", "--side", "middle"],
    ]
    for value in ("-1", "nan", "inf", "1e400", "abc"):
        argvs += [
            ["member", "--cone", rec, "--x", "[2,1]", "--tolerance", value],
            ["halfspace-check", "--halfspace", hs, "--x", "[0,0]", "--tolerance", value],
        ]
    for command in ("basis", "extreme-points", "recession", "homogenize", "minkowski-verify"):
        argvs.append([command])
    return argvs


def argvs(docs: dict) -> list:
    """The corpus's argv set, in table order."""
    out = _fixed_argvs()
    for kind in KINDS:
        for j in range(6):
            stem = f"{kind}-{j}"
            cone, cset, hs = f"{stem}-cone.json", f"{stem}-set.json", f"{stem}-hs.json"
            xs = [json.dumps(x) for x in json.loads(docs[f"{stem}-x.json"])]
            cone_x, cone_y, set_x, set_y, hs_x = xs
            n = len(json.loads(cone_x))
            tolerance = TOLERANCES[j % len(TOLERANCES)]
            out += [
                ["member", "--cone", cone, "--x", cone_x],
                ["member", "--cone", cone, "--x", cone_y],
                ["member", "--cone", cone, "--x", cone_y, "--tolerance", tolerance],
                ["member", "--set", cset, "--x", set_x],
                ["member", "--set", cset, "--x", set_y],
                ["member", "--set", cset, "--x", set_y, "--tolerance", tolerance],
                ["basis", "--cone", cone],
                ["decompose", "--cone", cone, "--x", cone_x],
                ["decompose", "--cone", cone, "--x", cone_y],
                ["decompose", "--set", cset, "--x", set_x],
                ["decompose", "--set", cset, "--x", set_y],
                ["extreme-points", "--set", cset],
                ["recession", "--set", cset],
                ["homogenize", "--set", cset],
                ["minkowski-verify", "--set", cset],
                ["halfspace-check", "--halfspace", hs, "--x", hs_x],
                ["halfspace-check", "--halfspace", hs, "--x", hs_x, "--side", "minus"],
                ["halfspace-check", "--halfspace", hs, "--x", hs_x, "--tolerance", tolerance],
                ["halfspace-check", "--halfspace", hs, "--set", f"{stem}-hs-set.json"],
                ["halfspace-check", "--halfspace", hs, "--set", f"{stem}-hs-set.json",
                 "--side", "minus", "--tolerance", tolerance],
                ["halfspace-check", "--halfspace", hs, "--set", cset],
            ]
            if j == 0:
                out.append(["member", "--cone", cone, "--x", json.dumps([0] * (n + 1))])
            if n == 2:
                grid = GRIDS[j % len(GRIDS)]
                out += [["render", "--cone", cone, "--grid", grid],
                        ["render", "--set", cset, "--grid", grid]]
                if j < 2:
                    out.append(["render", "--set", cset])
    for f, (argv, kind, takes_x) in enumerate(FORMS):
        for j in range(6):
            x = ["--x", json.dumps([0, 1] if j % 2 else ODD[j])] if takes_x else []
            out.append([*argv, f"odd-{f}-{j}.json", *x])
    return out


def _outcome(main, argv) -> tuple:
    """(exit code, stdout, stderr, whether argparse wrote them) of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            return exc.code, out.getvalue(), err.getvalue(), True
    return code, out.getvalue(), err.getvalue(), err.getvalue().startswith("usage:")


@functools.lru_cache(maxsize=None)
def calls() -> tuple:
    """(the documents, and per argv of the corpus (argv, exit code, stdout,
    stderr, whether argparse wrote them)) of the current code, run once in a
    fresh temporary directory."""
    from maxplus.cli import main

    docs = documents()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(HERE / "data", Path(tmp) / "data",
                        ignore=lambda d, names: [n for n in names if n not in DATA_FILES])
        for name, text in docs.items():
            (Path(tmp) / name).write_text(text)
        os.chdir(tmp)
        os.environ["COLUMNS"] = "80"
        try:
            runs = [(argv, *_outcome(main, argv)) for argv in argvs(docs)]
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
    return docs, runs


def compute_table() -> dict:
    """The table of the current code."""
    docs, runs = calls()
    rows = []
    for argv, code, out, err, argparse_wrote in runs:
        digest = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
        rows.append({"argv": argv, "exit": code, "sha256": None if argparse_wrote else digest})
    documents_sha256 = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    return {"documents_sha256": documents_sha256, "rows": rows}


def write_table(table: dict) -> None:
    """One row per line, so a diff shows each changed call."""
    lines = [json.dumps(row) for row in table["rows"]]
    TABLE.write_text(
        f'{{"documents_sha256": "{table["documents_sha256"]}",\n"rows": [\n'
        + ",\n".join(lines) + "\n]}\n"
    )


def test_table_matches_the_cli():
    pinned = json.loads(TABLE.read_text())
    table = compute_table()
    assert table["documents_sha256"] == pinned["documents_sha256"], "documents changed"
    assert [r["argv"] for r in table["rows"]] == [r["argv"] for r in pinned["rows"]]
    moved = [(new["argv"][:6], old["exit"], new["exit"])
             for old, new in zip(pinned["rows"], table["rows"]) if old != new]
    assert not moved, f"{len(moved)} rows changed, the first: {moved[:5]}"


def test_table_covers_every_subcommand_and_exit_code():
    rows = json.loads(TABLE.read_text())["rows"]
    commands = {"member", "basis", "decompose", "extreme-points", "recession", "homogenize",
                "minkowski-verify", "halfspace-check", "render"}
    assert {r["argv"][0] for r in rows if r["argv"]} == commands | {"nope", "--help"}
    assert {r["exit"] for r in rows} == {0, 1, 2, 3}
    # the bytes of most rows are pinned, not only their exit codes
    assert sum(r["sha256"] is None for r in rows) < 40 < len(rows) <= 1000


def _integral(value) -> bool:
    """Whether a document value holds only integers and "-inf" as scalars."""
    if isinstance(value, list):
        return all(map(_integral, value))
    return value == NEG or type(value) is int


def _verdict(argv, code, out, docs):
    """Whether a member or decompose call on an integer or -inf document
    states the exact oracle's answer: the member flag and projection, a
    certificate the oracle accepts, or a non-member's refusal with its
    projection.  None for any other call, and for a refused input (exit 1),
    of which the oracle has no reading."""
    import oracle  # on the path under pytest (conftest.py), not in script mode

    if code == 1 or argv[0] not in ("member", "decompose") or "--x" not in argv:
        return None
    if "--tolerance" in argv and argv[argv.index("--tolerance") + 1] != "0":
        return None
    flag = "--cone" if "--cone" in argv else "--set"
    name = argv[argv.index(flag) + 1]
    doc = oracle.load((HERE / name).read_text() if name.startswith("data/") else docs[name])
    x = oracle.load(argv[argv.index("--x") + 1])
    parts = [doc["generators"]] if flag == "--cone" else [doc["points"], doc.get("rays", [])]
    if not all(map(_integral, parts + [x])):
        return None
    # the library drops zero generators and zero rays, and indexes what is left
    nonzero = [v for v in map(oracle.vec, parts[-1]) if set(v) != {oracle.NEG}]
    if flag == "--cone":
        gens, target = nonzero, oracle.vec(x)
    else:
        points, rays = list(map(oracle.vec, parts[0])), nonzero
        gens, target = oracle.lift_points(points) + oracle.lift_rays(rays), oracle.vec(x) + (0,)
    n = len(x)
    terms = [(k, oracle.coefficient(g, target)) for k, g in enumerate(gens)]
    projection = oracle.combine(gens, terms, len(target))[:n]
    member, result = oracle.cone_member(gens, target), json.loads(out) if out else None
    if argv[0] == "member":
        return result == {"member": member, "projection": result["projection"]} and (
            oracle.vec(result["projection"]) == projection)
    if not member:
        return code == 2 and result["error"] == "not a member" and (
            oracle.vec(result["projection"]) == projection)
    if flag == "--cone":
        return code == 0 and oracle.cone_certificate_ok(gens, target, result)
    return code == 0 and oracle.set_certificate_ok(points, rays, target[:n], result)


def test_member_and_decompose_rows_state_the_exact_answer():
    """On integer and -inf documents every member and decompose row states
    the exact oracle's answer, not only pinned bytes."""
    docs, runs = calls()
    verdicts = [(_verdict(argv, code, out, docs), argv) for argv, code, out, _, _ in runs]
    assert [argv for verdict, argv in verdicts if verdict is False] == []
    assert sum(verdict is True for verdict, _ in verdicts) >= 100


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    table = compute_table()
    write_table(table)
    pinned = sum(r["sha256"] is not None for r in table["rows"])
    print(f"wrote {TABLE}: {len(table['rows'])} rows, {pinned} with their bytes pinned")
