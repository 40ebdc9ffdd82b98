"""The two construction routes of a geometry give one object.

``Cone.from_json`` and ``ConvexSet.from_json`` read a document straight into
float rows; ``Cone(TropMatrix.from_json(...))`` and ``ConvexSet(points,
rays)`` build a vector per column first, each coordinate checked as a
``MaxPlusScalar``.  Both routes must give
the same answers, and a malformed document the same refusal.
"""

import json
import random

import pytest

from maxplus import Cone, ConvexSet, DimensionMismatch, MaxPlusScalar, TropMatrix, TropVector

from util import CORPORA, corpus_coeff, corpus_vectors, outcome


def _document_value(rng, e):
    """A JSON value for ``e`` as a writer may give it: an integral value now
    and then as a float (3.0 for 3)."""
    return float(e) if type(e) is int and abs(e) < 2**53 and rng.random() < 0.3 else e


def _document(rng, vectors):
    return [[_document_value(rng, e) for e in v.to_json()] for v in vectors]


def _targets(rng, vectors, kind, n):
    """Max-plus combinations of the vectors (members) and other corpus
    vectors (mostly non-members)."""
    out = corpus_vectors(rng, n, kind)[:2]
    for _ in range(3):
        x = TropVector.zero(n)
        for g in rng.sample(vectors, min(len(vectors), 3)):
            x = x.join(g.scale(corpus_coeff(rng, kind, hi=0)))
        out.append(x)
    return out


@pytest.mark.parametrize("kind", CORPORA)
def test_cone_routes_agree(kind):
    rng = random.Random(f"cone routes:{kind}")
    for _ in range(120):
        n = rng.randint(1, 5)
        vectors = corpus_vectors(rng, n, kind)
        doc = json.loads(json.dumps({"generators": _document(rng, vectors)}))
        fast = Cone.from_json(doc)
        slow = Cone(TropMatrix.from_json(doc["generators"]))
        assert list(fast.generators) == list(slow.generators) == vectors
        assert fast.to_json() == slow.to_json() == {"generators": [v.to_json() for v in vectors]}
        assert fast.extract_basis().to_json() == slow.extract_basis().to_json()
        for x in _targets(rng, vectors, kind, n):
            assert outcome(lambda: fast.decompose(x)) == outcome(lambda: slow.decompose(x))


@pytest.mark.parametrize("kind", CORPORA)
def test_set_routes_agree(kind):
    rng = random.Random(f"set routes:{kind}")
    for _ in range(120):
        n = rng.randint(1, 4)
        points = corpus_vectors(rng, n, kind)
        rays = corpus_vectors(rng, n, kind)[: rng.randint(0, 3)]
        doc = json.loads(json.dumps({"points": _document(rng, points),
                                     "rays": _document(rng, rays)}))
        fast = ConvexSet.from_json(doc)
        slow = ConvexSet(TropMatrix.from_json(doc["points"]),
                         TropMatrix.from_json(doc["rays"], dim=n))
        assert (list(fast.points), list(fast.rays)) == (list(slow.points), list(slow.rays))
        assert (list(fast.points), list(fast.rays)) == (points, rays)
        assert fast.to_json() == slow.to_json()
        assert fast.extreme_points() == slow.extreme_points()
        assert fast.recession().to_json() == slow.recession().to_json()


# malformed scalars as JSON text: each refused with one message by every route
BAD_SCALARS = ["true", "1e400", "-1e400", "NaN", str(2**53 + 1), "1" + "0" * 400, "[1]"]


def _message(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def _geometry_messages(rows_before, rows_after) -> set:
    """The refusal of each route that reads the rows as a cone's generators,
    a set's points or a set's rays (behind one good point)."""
    rows = rows_before + rows_after
    return {
        _message(lambda: Cone.from_json({"generators": rows})),
        _message(lambda: Cone(TropMatrix.from_json(rows))),
        _message(lambda: ConvexSet.from_json({"points": rows})),
        _message(lambda: ConvexSet(TropMatrix.from_json(rows))),
        _message(lambda: ConvexSet.from_json({"points": [[0, 1]], "rays": rows})),
    }


@pytest.mark.parametrize("text", BAD_SCALARS)
def test_malformed_scalar_one_message(text):
    value = json.loads(text)
    message = _message(lambda: MaxPlusScalar.from_json(value))
    assert _message(lambda: TropVector.from_json([0, value])) == message
    assert _geometry_messages([[0, 1]], [[value, 0]]) == {message}
    # the first malformed scalar in document order is the one named
    assert _geometry_messages([[1, value]], [[2, json.loads(BAD_SCALARS[0])]]) == {message}


def test_empty_vector_one_message():
    message = "expected a non-empty array of scalars, got []"
    assert _message(lambda: TropVector.from_json([])) == message
    assert _geometry_messages([[0, 1]], [[]]) == {message}
    assert _geometry_messages([[]], [[]]) == {message}


def test_mixed_dimensions_one_message():
    rows = [[0, 1], [0, 1, 2]]
    assert _geometry_messages(rows, []) == {"columns have mixed dimensions"}
    # a bad scalar after the mismatch is still read first
    assert _geometry_messages(rows, [[True, 0]]) == {_message(lambda: MaxPlusScalar.from_json(True))}


def test_rays_of_another_dimension_refused():
    points = TropMatrix([TropVector.of(0, 1)])
    with pytest.raises(DimensionMismatch, match="^points dim 2 vs rays dim 3$"):
        ConvexSet(points, TropMatrix([TropVector.of(0, 1, 2)]))
