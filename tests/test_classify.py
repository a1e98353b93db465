"""Classification rules, the symmetric decomposition and cross-verification."""

import hashlib
import json
from itertools import permutations

import pytest

from lefschetz import (
    HilbertSeries,
    HypothesisViolation,
    MaciSpec,
    MonomialIdeal,
    all_maci_grid,
    classify_maci,
    classify_support_two,
    csm_decomposition,
    grid_from_json,
    is_symmetric,
    lefschetz_report,
    slp_symmetric,
    support_two_grid,
    symmetric_grid,
    symmetric_witness,
    two_var_profile,
)
from _util import (
    classify_maci_per_spec,
    classify_support_two_by_scan,
    hilbert_series_by_colon,
    hilbert_series_by_counting,
    is_symmetric_maci,
    piece_ideal,
    rand_maci,
    seeded,
    survey_disagreements,
    symmetric_grid_per_spec,
)


def test_classify_example_pair():
    for a3 in range(2, 6):
        for a4 in range(2, 6):
            good = classify_support_two(MaciSpec((4, 6, a3, a4), (2, 3, 0, 0)))
            assert good.slp and good.rule == "almost_centered"
            bad = classify_support_two(MaciSpec((4, 6, a3, a4), (2, 4, 0, 0)))
            assert not bad.slp and bad.rule == "not_applicable"


def test_classify_three_variables_large_extra():
    verdict = classify_support_two(MaciSpec((2, 5, 3), (1, 1, 0)))
    assert not verdict.slp
    small = classify_support_two(MaciSpec((2, 5, 2), (1, 1, 0)))
    assert small.slp and small.rule == "n3_cube_le_2"


def test_classify_two_variables():
    verdict = classify_support_two(MaciSpec((2, 2), (1, 1)))
    assert verdict.slp and verdict.rule == "n_eq_2"


def test_classify_normalizes_the_support_pair():
    # support on x2, x3 with the roles swapped relative to the normal form:
    # (a1, alpha) = (6, 1), (a2, beta) = (4, 3) has a1 + beta > a2 + alpha
    verdict = classify_support_two(MaciSpec((2, 6, 4), (0, 1, 3)))
    assert verdict.details["support"] == (2, 3)
    assert verdict.details["swapped"]
    assert (verdict.details["a1"], verdict.details["a2"]) == (4, 6)
    assert (verdict.details["alpha"], verdict.details["beta"]) == (3, 1)


def test_classify_rejects_wrong_support():
    with pytest.raises(ValueError):
        classify_support_two(MaciSpec((3, 3, 3), (1, 1, 1)))


def test_classify_drops_unit_exponents():
    # x3 = x4 = 0 in the quotient, so this is really the two-variable case
    spec = MaciSpec((2, 5, 1, 1), (1, 1, 0, 0))
    verdict = classify_support_two(spec)
    assert verdict.slp and verdict.rule == "n_eq_2"
    assert lefschetz_report(spec.ideal()).slp
    # one surviving extra with exponent 2 next to a unit one
    spec = MaciSpec((2, 5, 1, 2), (1, 1, 0, 0))
    verdict = classify_support_two(spec)
    assert verdict.slp and verdict.rule == "n3_cube_le_2"
    assert lefschetz_report(spec.ideal()).slp


def test_almost_centered_bullet_equals_explicit_conditions():
    for a1 in range(2, 9):
        for a2 in range(2, 9):
            for alpha in range(1, a1):
                for beta in range(1, a2):
                    spec = MaciSpec((a1, a2, 3, 3), (alpha, beta, 0, 0))
                    d = classify_support_two(spec).details
                    assert d["two_var_almost_centered"] == d["explicit_conditions"], d


def test_symmetric_witness_examples():
    assert symmetric_witness(MaciSpec((2, 3, 4, 5), (1, 1, 1, 1))) == (0, 1, 2, 3)
    assert symmetric_witness(MaciSpec((3, 3, 3), (1, 1, 1))) is None
    assert symmetric_witness(MaciSpec((2, 3, 7), (1, 1, 0))) == (0, 1)
    # relabeled: the witness runs through the support in increasing a order
    assert symmetric_witness(MaciSpec((5, 2, 3), (2, 1, 1))) == (1, 2, 0)
    assert is_symmetric_maci(MaciSpec((2, 3, 4, 5), (1, 1, 1, 1)))


def test_symmetric_witness_against_palindromes_small():
    for spec in all_maci_grid([2, 3], 5):
        assert is_symmetric_maci(spec) == is_symmetric(spec.series()), spec


def test_csm_decomposition_example():
    dec = csm_decomposition(MaciSpec((2, 3, 4, 5), (1, 1, 1, 1)), var=3)
    assert dec.variable == 3
    assert len(dec.pieces) == 2
    head, tail = dec.pieces
    assert head.multiplier == 5 and head.shift == 0
    assert piece_ideal(head) == MonomialIdeal(
        3, [(2, 0, 0), (0, 3, 0), (0, 0, 4), (1, 1, 1)]
    )
    assert tail.multiplier == 1 and tail.shift == 3
    assert piece_ideal(tail) == MonomialIdeal(3, [(1, 0, 0), (0, 2, 0), (0, 0, 3)])
    assert head.multiplier > tail.multiplier >= 1
    spec_series = MaciSpec((2, 3, 4, 5), (1, 1, 1, 1)).series()
    assert dec.total_series() == spec_series


def test_csm_decomposition_tensor_factor():
    # p_var = 0: a single piece and a product identity
    spec = MaciSpec((2, 3, 7), (1, 1, 0))
    dec = csm_decomposition(spec, var=2)
    assert len(dec.pieces) == 1
    piece = dec.pieces[0]
    assert piece.multiplier == 7 and piece.shift == 0
    assert dec.total_series() == spec.series()


def test_csm_decomposition_two_variables():
    spec = MaciSpec((3, 3), (1, 1))
    dec = csm_decomposition(spec, var=1)
    assert dec.total_series() == spec.series()
    # truncating the extra generator leaves x1, which replaces x1^3
    assert piece_ideal(dec.pieces[0]) == MonomialIdeal(1, [(1,)])


def test_csm_default_variable_is_largest_support_exponent():
    # decomposing at the top of the witness chain keeps the widened
    # reflecting degrees aligned; (4, 2) with m = x^2 y needs variable 1
    spec = MaciSpec((4, 2), (2, 1))
    dec = csm_decomposition(spec)
    assert dec.variable == 0
    assert slp_symmetric(spec)


def test_csm_identity_on_random_specs():
    rng = seeded(137)
    for _ in range(200):
        spec = rand_maci(rng, rng.randint(2, 4), 6)
        var = rng.choice(spec.m.support)
        dec = csm_decomposition(spec, var)
        assert dec.total_series() == spec.series(), (spec, var)


def _rename(exponents, perm):
    """Exponent vector with variable k renamed to variable perm[k]."""
    out = [0] * len(perm)
    for k, target in enumerate(perm):
        out[target] = exponents[k]
    return out


def test_csm_decomposition_commutes_with_relabeling():
    # survey rows are shared across a relabeling class, so the symmetric
    # scaffolding must decompose a renamed spec into the renamed pieces
    rng = seeded(61)
    grid = symmetric_grid([2, 3, 4], 8)
    for spec in rng.sample(grid, 300):
        perm = list(range(spec.n))
        rng.shuffle(perm)
        renamed = MaciSpec(_rename(spec.a, perm), _rename(spec.m, perm))
        assert renamed.relabeling_class() == spec.relabeling_class()
        dec = csm_decomposition(spec)
        moved = csm_decomposition(renamed)
        assert moved.variable == perm[dec.variable], (spec, perm)
        rest = [k for k in range(spec.n) if k != dec.variable]
        moved_rest = [k for k in range(spec.n) if k != moved.variable]
        inner = [moved_rest.index(perm[k]) for k in rest]
        assert len(moved.pieces) == len(dec.pieces)
        for piece, moved_piece in zip(dec.pieces, moved.pieces):
            ideal = piece_ideal(piece)
            gens = [_rename(g, inner) for g in ideal.generators]
            assert piece_ideal(moved_piece) == MonomialIdeal(ideal.n, gens), (spec, perm)
            assert moved_piece.shift == piece.shift
            assert moved_piece.multiplier == piece.multiplier


def _pieces_recursively(spec):
    for piece in csm_decomposition(spec).pieces:
        yield piece
        if isinstance(piece.quotient, MaciSpec):
            yield from _pieces_recursively(piece.quotient)


def test_piece_closed_forms_match_the_ideal_routes():
    # piece series are closed forms on exponent data; the colon recursion
    # and the standard-monomial count on the displayed ideal must agree
    rng = seeded(67)
    grid = symmetric_grid([2, 3, 4], 8)
    renamed = []
    for spec in rng.sample(grid, 200):
        perm = list(range(spec.n))
        rng.shuffle(perm)
        renamed.append(MaciSpec(_rename(spec.a, perm), _rename(spec.m, perm)))
    checked = 0
    for spec in grid + renamed:
        for piece in _pieces_recursively(spec):
            ideal = piece_ideal(piece)
            want = hilbert_series_by_colon(ideal)
            assert piece.series == want == hilbert_series_by_counting(ideal), (spec, piece)
            assert piece.generators == ideal.sorted_generators(), (spec, piece)
            assert piece.n == ideal.n
            checked += 1
    assert checked > 2 * len(grid)


def test_csm_rejects_bad_variable():
    with pytest.raises(ValueError):
        csm_decomposition(MaciSpec((2, 2), (1, 1)), var=5)


def test_slp_symmetric_examples():
    assert slp_symmetric(MaciSpec((2, 3, 4, 5), (1, 1, 1, 1)))
    assert slp_symmetric(MaciSpec((2, 3, 7), (1, 1, 0)))
    with pytest.raises(ValueError):
        slp_symmetric(MaciSpec((3, 3, 3), (1, 1, 1)))


def test_classify_maci_dispatch():
    assert classify_maci(MaciSpec((4, 6, 2), (2, 3, 0))).rule == "n3_cube_le_2"
    assert classify_maci(MaciSpec((4, 6, 3, 3), (2, 3, 0, 0))).rule == "almost_centered"
    verdict = classify_maci(MaciSpec((2, 3, 4), (1, 1, 1)))
    assert verdict.slp and verdict.rule == "symmetric_hs"
    assert verdict.details["witness_order"] == [1, 2, 3]
    # support three, ties in the exponents: no rule applies
    assert classify_maci(MaciSpec((3, 3, 3, 3), (1, 1, 1, 0))) is None


def test_cross_verify_small_grids():
    assert survey_disagreements([]) == []
    assert survey_disagreements(support_two_grid([2], 4)) == []
    assert survey_disagreements(support_two_grid([3], 3)) == []
    sym = [s for s in symmetric_grid([3], 8) if len(s.m.support) > 2]
    assert survey_disagreements(sym[:40]) == []


def test_cross_verify_flags_wrong_predictions(monkeypatch):
    import lefschetz.classify as classify_mod
    import lefschetz.cli as cli_mod

    spec = MaciSpec((2, 2), (1, 1))

    def wrong(_spec):
        return classify_mod.ClassificationVerdict(False, "n_eq_2", {})

    monkeypatch.setattr(cli_mod, "classify_maci", wrong)
    bad = survey_disagreements([spec])
    assert len(bad) == 1 and bad[0].slp_predicted is False and bad[0].slp is True


def test_support_two_grid_shape():
    grid = support_two_grid([2], 6)
    assert len(grid) == 225
    assert all(s.n == 2 for s in grid)
    pinned = support_two_grid([4], 6, extra_exp=2)
    assert len(pinned) == 225
    assert all(s.a[2] == s.a[3] == 2 for s in pinned)


def test_symmetric_grid_is_symmetric_and_bounded():
    grid = symmetric_grid([2, 3], 9)
    assert grid
    seen = set()
    for spec in grid:
        key = (spec.a, tuple(spec.m))
        assert key not in seen
        seen.add(key)
        assert is_symmetric_maci(spec)
        assert spec.socle_degree() <= 9
        assert is_symmetric(spec.series())


@pytest.mark.parametrize(
    "args, size, digest",
    [
        ((range(2, 5), 8), 4894, "82596730233248494a99a0c22fbd81675d95e3589266245c89e8567c4e1a5fd3"),
        ((range(2, 6), 9, 4), 5982, "07f2c489ee9614b20d4e9170e69f7b81a40a83b606adb2fcdecb5b1770f5a9dc"),
    ],
)
def test_symmetric_grid_content_and_order_are_pinned(args, size, digest):
    # recorded from the grid as enumerated before the socle filter was
    # dropped; the survey-row digest of the benchmark depends on this order
    grid = symmetric_grid(*args)
    assert len(grid) == size
    got = hashlib.sha256(repr([(s.a, tuple(s.m)) for s in grid]).encode()).hexdigest()
    assert got == digest


def test_symmetric_grid_is_complete_at_small_scale():
    # against brute force over all specs with n <= 3, exponents <= 7
    brute = {
        (s.a, tuple(s.m))
        for s in all_maci_grid([2, 3], 7)
        if is_symmetric_maci(s) and s.socle_degree() <= 9
    }
    generated = {
        (s.a, tuple(s.m))
        for s in symmetric_grid([2, 3], 9)
        if max(s.a) <= 7
    }
    assert brute == generated


def test_grid_from_json():
    grid = grid_from_json({"family": "support_two", "n": [2, 2], "max_exp": 4})
    assert len(grid) == support_two_grid([2], 4).__len__()
    grid = grid_from_json({"family": "symmetric", "n": 2, "max_socle": 6})
    assert all(s.n == 2 for s in grid)
    grid = grid_from_json({"family": "all_maci", "n": [2, 2], "max_exp": 3})
    assert all(s.n == 2 for s in grid)
    with pytest.raises(ValueError):
        grid_from_json({"family": "everything"})
    # the range, the defaults and the family keys stay as they were
    assert len(grid_from_json({"family": "support_two", "n": [2, 3], "max_exp": 3})) == len(
        support_two_grid([2, 3], 3)
    )
    assert len(grid_from_json({"family": "all_maci", "max_exp": 2})) == len(
        list(all_maci_grid([2, 3, 4], 2))
    )
    grid = grid_from_json({"family": "symmetric", "n": 3, "max_socle": 5, "max_exp": 4})
    assert len(grid) == len(symmetric_grid([3], 5, 4))
    grid = grid_from_json({"family": "support_two", "n": 3, "max_exp": 3, "extra_exp": 2})
    assert all(s.a[2] == 2 for s in grid)


def test_symmetric_grid_with_no_support_chain_is_empty_at_once(monkeypatch):
    # with max_socle 1 no support chain exists, so no support subset is walked
    import lefschetz.classify as classify_mod

    real = classify_mod.combinations

    def counting(*args):
        for count, item in enumerate(real(*args)):
            if count >= 10_000:
                raise AssertionError("support subsets walked for an empty grid")
            yield item

    monkeypatch.setattr(classify_mod, "combinations", counting)
    assert grid_from_json({"family": "symmetric", "n": [2, 10_000], "max_socle": 1}) == []


def test_grid_size_bound_of_a_grid_with_no_support_chain_is_zero():
    from lefschetz.classify import _grid_size_bound

    # with max_socle 1 no spec exists at any n, so the bound is 0 and the
    # powers 2^(n-1) and cap^(n-1) up to n = 10,000 are never needed
    assert _grid_size_bound("symmetric", range(2, 10_001), None, 1, None) == 0
    assert _grid_size_bound("symmetric", range(2, 10_001), 5, 1, None) == 0


def test_grid_size_bound_covers_the_grid():
    from lefschetz.classify import _grid_size_bound

    # the bound counts n exponents per spec; it is exact for support_two
    # and admits the benchmark grids (the second is classify_grid's)
    cases = [
        ({"family": "symmetric", "n": [2, 4], "max_socle": 8}, 57_750),
        ({"family": "symmetric", "n": [2, 4], "max_socle": 13}, 527_527),
        ({"family": "symmetric", "n": 5, "max_socle": 6}, None),
        ({"family": "symmetric", "n": [2, 3], "max_socle": 30, "max_exp": 5}, None),
        ({"family": "symmetric", "n": [2, 6], "max_socle": 12, "max_exp": 3}, None),
        ({"family": "symmetric", "n": 2, "max_socle": 40}, None),
        ({"family": "support_two", "n": [2, 4], "max_exp": 4}, None),
        ({"family": "support_two", "n": [2, 4], "max_exp": 3, "extra_exp": 2}, None),
        ({"family": "all_maci", "n": [2, 3], "max_exp": 3}, None),
    ]
    for grid, bound in cases:
        exponents = sum(spec.n for spec in grid_from_json(grid))
        lo, hi = (grid["n"], grid["n"]) if type(grid["n"]) is int else grid["n"]
        got = _grid_size_bound(
            grid["family"],
            range(lo, hi + 1),
            grid.get("max_exp"),
            grid.get("max_socle"),
            grid.get("extra_exp"),
        )
        assert got >= exponents, grid
        if grid["family"] == "support_two":
            assert got == exponents, grid
        if bound is not None:
            assert got == bound, grid


def test_hypothesis_violation_when_identity_is_broken(monkeypatch):
    import lefschetz.classify as classify_mod

    spec = MaciSpec((2, 3), (1, 1))
    real = classify_mod.csm_decomposition

    def broken(s, var=None):
        dec = real(s, var)
        tampered = classify_mod.CsmPiece(
            dec.pieces[0].quotient, dec.pieces[0].shift + 1, dec.pieces[0].multiplier
        )
        return classify_mod.CsmDecomposition(dec.variable, (tampered,) + dec.pieces[1:])

    monkeypatch.setattr(classify_mod, "csm_decomposition", broken)
    with pytest.raises(HypothesisViolation):
        slp_symmetric(spec)


@pytest.mark.parametrize(
    "obligation, message",
    [
        ("palindrome", "is not a palindrome"),
        ("piece symmetry", "has a non-symmetric series"),
    ],
)
def test_each_symmetry_obligation_raises_when_broken(monkeypatch, obligation, message):
    # only the spec's own series passes as a palindrome for "piece symmetry"
    import lefschetz.classify as classify_mod

    spec = MaciSpec((2, 3, 4), (1, 1, 1))
    ambient = spec.series()
    if obligation == "palindrome":
        monkeypatch.setattr(classify_mod, "is_symmetric", lambda series: False)
    else:
        monkeypatch.setattr(classify_mod, "is_symmetric", lambda series: series == ambient)
    with pytest.raises(HypothesisViolation, match=message):
        slp_symmetric(spec)


def test_palindrome_obligation_names_one_mismatch_not_every_coefficient(monkeypatch):
    import lefschetz.classify as classify_mod

    spec = MaciSpec((2, 3, 4) + (2,) * 200, (1, 1, 1) + (0,) * 200)
    monkeypatch.setattr(classify_mod, "is_symmetric", lambda series: False)
    with pytest.raises(HypothesisViolation, match="socle degree 205 is not a palindrome") as err:
        slp_symmetric(spec)
    assert len(str(err.value)) < 300
    monkeypatch.undo()
    with pytest.raises(HypothesisViolation) as err:
        classify_mod._check_symmetric_decomposition(spec, HilbertSeries([1, 3, 4, 2, 1]))
    assert "socle degree 4 is not a palindrome, h_1 = 3 but h_3 = 2 for MaciSpec(" in str(err.value)


def test_slp_symmetric_computes_each_piece_series_once(monkeypatch):
    # every series on the path is a closed form: the spec's own
    # MaciSpec.series, then one MaciSpec.series or ci_series per piece,
    # read once although the identity and the symmetry checks both use it
    import lefschetz.classify as classify_mod

    pieces = []
    calls = []
    real_decomposition = classify_mod.csm_decomposition
    real_maci_series = MaciSpec.series
    real_ci_series = classify_mod.ci_series

    def recording(spec, var=None):
        dec = real_decomposition(spec, var)
        pieces.extend(dec.pieces)
        return dec

    def counting_maci(spec):
        calls.append(spec)
        return real_maci_series(spec)

    def counting_ci(exponents):
        calls.append(exponents)
        return real_ci_series(exponents)

    monkeypatch.setattr(classify_mod, "csm_decomposition", recording)
    monkeypatch.setattr(MaciSpec, "series", counting_maci)
    monkeypatch.setattr(classify_mod, "ci_series", counting_ci)
    for spec in (
        MaciSpec((2, 3, 4, 5), (1, 1, 1, 1)),
        MaciSpec((2, 5, 3), (1, 2, 1)),
        MaciSpec((3, 4, 2, 6), (2, 1, 0, 2)),
    ):
        pieces.clear()
        calls.clear()
        assert slp_symmetric(spec)
        assert len(pieces) >= 2
        assert calls == [spec] + [piece.quotient for piece in pieces], spec


def test_classify_maci_builds_no_monomial_ideal(monkeypatch):
    # the rules and the symmetric scaffolding run on exponent data alone;
    # classes certified by earlier tests are forgotten so the scaffolding runs
    import lefschetz.classify as classify_mod
    import lefschetz.core as core_mod

    classify_mod._certify_symmetric_class.cache_clear()
    grid = symmetric_grid([2, 3, 4], 6)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a MonomialIdeal was built")

    monkeypatch.setattr(core_mod.MonomialIdeal, "__init__", refuse)
    verdicts = [classify_maci(spec) for spec in grid]
    assert {v.rule for v in verdicts} == {"n_eq_2", "n3_cube_le_2", "almost_centered", "symmetric_hs"}


def _relabelings(spec):
    for perm in permutations(range(spec.n)):
        yield MaciSpec(_rename(spec.a, perm), _rename(spec.m, perm))


def test_classify_maci_equals_the_per_spec_reference():
    # each symmetric class is certified once, on its canonical spec; the
    # verdicts, witness orders included, are those of certifying every spec
    import lefschetz.classify as classify_mod

    classify_mod._certify_symmetric_class.cache_clear()
    rng = seeded(71)
    grid = symmetric_grid([2, 3, 4], 8)
    rng.shuffle(grid)
    renamed = []
    for spec in grid:
        perm = list(range(spec.n))
        rng.shuffle(perm)
        renamed.append(MaciSpec(_rename(spec.a, perm), _rename(spec.m, perm)))
    symmetric = 0
    for spec in grid + renamed:
        got = classify_maci(spec)
        assert got.as_dict() == classify_maci_per_spec(spec), spec
        symmetric += got.rule == "symmetric_hs"
    classes = {spec.relabeling_class() for spec in grid}
    assert symmetric > 2 * len(classes)


def test_support_two_verdicts_equal_the_scanning_reference():
    # same JSON text, key order included, for canonical and relabeled
    # support-two specs and the support-two specs of the symmetric grid
    rng = seeded(20)
    grid = support_two_grid([2, 3, 4], 5)
    renamed = []
    for spec in grid:
        perm = list(range(spec.n))
        rng.shuffle(perm)
        renamed.append(MaciSpec(_rename(spec.a, perm), _rename(spec.m, perm)))
    symmetric = [spec for spec in symmetric_grid([2, 3, 4], 9) if len(spec.support) == 2]
    rules = set()
    for spec in grid + renamed + symmetric:
        got = classify_support_two(spec)
        assert json.dumps(got.as_dict()) == json.dumps(classify_support_two_by_scan(spec)), spec
        rules.add(got.rule)
    assert rules == {"n_eq_2", "n3_cube_le_2", "almost_centered", "not_applicable"}


def test_verdicts_build_their_details_only_when_read(monkeypatch):
    import lefschetz.classify as classify_mod
    from lefschetz.cli import survey_rows

    def no_details(*args):
        raise RuntimeError("verdict details were built")

    specs = support_two_grid([2, 3, 4], 4) + symmetric_grid([2, 3, 4], 6)
    want = [(v.slp, v.rule) for v in map(classify_maci, specs)]
    survey = symmetric_grid([3], 5)
    want_rows = [{**vars(row), "ms": 0.0} for row in survey_rows(survey)]
    monkeypatch.setattr(classify_mod.ClassificationVerdict, "details", property(no_details))
    verdicts = [classify_maci(spec) for spec in specs]
    assert [(v.slp, v.rule) for v in verdicts] == want
    assert {v.rule for v in verdicts} == {
        "n_eq_2", "n3_cube_le_2", "almost_centered", "not_applicable", "symmetric_hs"
    }
    assert [{**vars(row), "ms": 0.0} for row in survey_rows(survey)] == want_rows
    for verdict in verdicts:
        with pytest.raises(RuntimeError, match="details"):
            verdict.as_dict()
    monkeypatch.undo()
    # built on first read, once per verdict
    verdict = classify_maci(MaciSpec((4, 6, 1, 3), (2, 3, 0, 0)))
    assert "details" not in vars(verdict)
    assert verdict.details["ignored_unit_exponents"] == 1
    assert verdict.as_dict()["details"] is verdict.details is vars(verdict)["details"]


def test_verdicts_are_equal_when_slp_rule_and_details_are():
    # other specs, the same sorted extras and so the same details
    spec = MaciSpec((4, 6, 2, 3), (2, 3, 0, 0))
    assert classify_maci(spec) == classify_maci(MaciSpec((4, 6, 3, 2), (2, 3, 0, 0)))
    # same slp and rule; the relabeled pair is normalized by a swap
    swapped = classify_maci(MaciSpec((6, 4, 2, 3), (3, 2, 0, 0)))
    assert (swapped.slp, swapped.rule) == (classify_maci(spec).slp, classify_maci(spec).rule)
    assert swapped != classify_maci(spec)
    # same slp and rule, witness orders [1, 2, 3] and [2, 1, 3]
    ordered = classify_maci(MaciSpec((2, 3, 5), (1, 1, 2)))
    renamed = classify_maci(MaciSpec((3, 2, 5), (1, 1, 2)))
    assert (ordered.slp, ordered.rule) == (renamed.slp, renamed.rule) == (True, "symmetric_hs")
    assert ordered != renamed and ordered == classify_maci(MaciSpec((2, 3, 5), (1, 1, 2)))


def test_symmetric_grid_equals_the_per_spec_reference():
    # one extra generator per support assignment, shared by the specs that
    # fill in the other exponents, gives the same specs in the same order
    got = symmetric_grid([2, 3, 4], 9)
    want = symmetric_grid_per_spec([2, 3, 4], 9)
    assert [(s.a, tuple(s.m)) for s in got] == [(s.a, tuple(s.m)) for s in want]
    assert all(s.m.support == w.m.support for s, w in zip(got, want))


def test_classify_maci_certifies_each_symmetric_class_once(monkeypatch):
    import lefschetz.classify as classify_mod

    classify_mod._certify_symmetric_class.cache_clear()
    certified = []
    real = classify_mod.slp_symmetric

    def counting(spec):
        certified.append(spec)
        return real(spec)

    monkeypatch.setattr(classify_mod, "slp_symmetric", counting)
    spec = MaciSpec((1, 4, 2, 3), (0, 1, 1, 1))
    verdicts = [classify_maci(other) for other in _relabelings(spec)]
    assert len(verdicts) == 24 and all(v.rule == "symmetric_hs" for v in verdicts)
    assert certified == [MaciSpec((1, 2, 3, 4), (0, 1, 1, 1))]


def test_classify_maci_decides_symmetry_once_per_class(monkeypatch):
    # symmetry is decided on the canonical spec of a class, not per labeled
    # spec; the verdict holds the labeled spec and the CSM pieces hold series
    import lefschetz.classify as classify_mod

    classify_mod._certify_symmetric_class.cache_clear()
    calls = []
    real = classify_mod.symmetric_witness

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(classify_mod, "symmetric_witness", counting)
    grid = [spec for spec in symmetric_grid([2, 3, 4], 6) if len(spec.support) != 2]
    verdicts = [classify_maci(spec) for spec in grid]
    classes = {spec.relabeling_class() for spec in grid}
    assert len(calls) <= 2 * len(classes) and len(calls) < len(grid)
    assert all(v.rule == "symmetric_hs" and v.source is spec for v, spec in zip(verdicts, grid))
    piece = csm_decomposition(grid[0]).pieces[0]
    assert "series" in vars(piece) and not classify_mod.CsmPiece.__dataclass_params__.frozen


def test_tampered_class_raises_for_every_labeled_spec(monkeypatch):
    # a failed certification is not cached: every spec of the class raises,
    # and each message names the labeled spec that was being classified
    import lefschetz.classify as classify_mod

    classify_mod._certify_symmetric_class.cache_clear()
    real = classify_mod.csm_decomposition

    def broken(s, var=None):
        dec = real(s, var)
        head = dec.pieces[0]
        tampered = classify_mod.CsmPiece(head.quotient, head.shift + 1, head.multiplier)
        return classify_mod.CsmDecomposition(dec.variable, (tampered,) + dec.pieces[1:])

    monkeypatch.setattr(classify_mod, "csm_decomposition", broken)
    specs = list(_relabelings(MaciSpec((2, 3, 4), (1, 1, 1))))
    assert len(specs) == 6
    for spec in specs:
        with pytest.raises(HypothesisViolation) as info:
            classify_maci(spec)
        assert repr(spec) in str(info.value)
        assert isinstance(info.value.__cause__, HypothesisViolation)


def test_slp_symmetric_is_not_cached(monkeypatch):
    import lefschetz.classify as classify_mod

    calls = []
    real = classify_mod.csm_decomposition

    def counting(s, var=None):
        calls.append(s)
        return real(s, var)

    monkeypatch.setattr(classify_mod, "csm_decomposition", counting)
    spec = MaciSpec((2, 3, 4), (1, 1, 1))
    assert slp_symmetric(spec) and slp_symmetric(spec)
    assert calls == [spec, spec]

