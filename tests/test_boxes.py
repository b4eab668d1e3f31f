"""Box tables: constructors, composition, marginals, validation, JSON."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxswap import (
    BoxTable,
    Scalar,
    ONE,
    ZERO,
    anti_pr,
    deterministic_local,
    failure,
    gsb,
    isotropic,
    marginalize,
    merge_parties,
    mix,
    mixed,
    named_box,
    permute_parties,
    pr,
    sb,
    tensor,
    validate,
)
from boxswap.errors import (
    ArityError,
    PartyCapError,
    SignalingError,
    SpecFileError,
    ValidationError,
)

HALF = Scalar.rational(1, 2)
QUARTER = Scalar.rational(1, 4)


def test_pr_table_entries():
    box = pr()
    # a XOR b = x AND y, uniformly over the two compliant output words
    for x in range(4):
        x1, x2 = x & 1, (x >> 1) & 1
        for a in range(4):
            want = HALF if (a & 1) ^ ((a >> 1) & 1) == (x1 & x2) else ZERO
            assert box.prob(x, a) == want


def test_pr_has_eight_half_entries():
    assert sum(1 for _, _, p in pr().entries() if p == HALF) == 8


def test_sb_has_thirty_two_quarter_entries():
    assert sum(1 for _, _, p in sb().entries() if p == QUARTER) == 32
    # outputs XOR to the pairwise product of inputs
    box = sb()
    for x, a, p in box.entries():
        x1, x2, x3 = x & 1, (x >> 1) & 1, (x >> 2) & 1
        parity = (x1 & x2) ^ (x1 & x3) ^ (x2 & x3)
        assert bool(p) == (a.bit_count() % 2 == parity)


def test_gsb_reduces_to_pr_and_sb():
    assert gsb(2) == pr()
    assert gsb(3) == sb()


def test_gsb_subset_marginals_are_fully_mixed():
    assert marginalize(gsb(3), [1, 2]) == mixed(2)
    assert marginalize(gsb(4), [2, 4]) == mixed(2)
    assert marginalize(gsb(4), [1, 2, 3]) == mixed(3)


def test_anti_pr_is_the_weight_minus_one_box():
    assert anti_pr() == isotropic(2, -1)


def test_isotropic_endpoints_and_range():
    assert isotropic(2, 1) == pr()
    assert isotropic(3, 0) == mixed(3)
    with pytest.raises(ValidationError):
        isotropic(2, Scalar.rational(3, 2))
    with pytest.raises(ValidationError):
        isotropic(2, -2)


def test_failure_box_entries():
    box = failure(2)
    # 1/8 on the words the extremal box uses, 3/8 on the others
    for x, a, p in box.entries():
        assert p in (Scalar.rational(1, 8), Scalar.rational(3, 8))
        assert (p == Scalar.rational(1, 8)) == bool(pr().prob(x, a))


def test_deterministic_local_outputs():
    box = deterministic_local([(0, 1), (1, 0)])  # a1 = x1, a2 = 1
    for x in range(4):
        a = (x & 1) | (1 << 1)
        assert box.prob(x, a) == ONE
    assert validate(box).all_ok


def test_named_box_dispatch():
    assert named_box("pr") == pr()
    assert named_box("gsb", 4) == gsb(4)
    assert named_box("isotropic", 2, HALF) == isotropic(2, HALF)
    with pytest.raises(ArityError):
        named_box("pr", 3)
    with pytest.raises(ArityError):
        named_box("gsb")
    with pytest.raises(ArityError):
        named_box("nope", 2)
    with pytest.raises(ArityError):
        named_box("sb", 3, xi=HALF)


def test_mix_checks_weights_and_sign():
    with pytest.raises(ValidationError):
        mix([(HALF, pr()), (QUARTER, mixed(2))])
    with pytest.raises(ValidationError):
        mix([(Scalar(2), pr()), (Scalar(-1), anti_pr())])
    quasi = BoxTable(2, [2 * p - q for p, q in zip(pr().probs, anti_pr().probs)])
    assert min(p.sign() for p in quasi.probs) < 0


def test_tensor_layout_keeps_left_factor_low():
    joint = tensor(pr(), mixed(2))
    # party 1,2 from pr, 3,4 from the mixed box
    assert joint.n == 4
    assert marginalize(joint, [1, 2]) == pr()
    assert marginalize(joint, [3, 4]) == mixed(2)
    assert joint.prob(0b0000, 0b0000) == HALF * QUARTER


def test_party_cap_is_enforced_but_overridable():
    with pytest.raises(PartyCapError):
        mixed(11)
    assert mixed(11, cap=11).n == 11
    with pytest.raises(PartyCapError):
        tensor(pr(), pr(), cap=3)


def test_marginalize_requires_valid_args():
    with pytest.raises(ArityError):
        marginalize(pr(), [])
    with pytest.raises(ArityError):
        marginalize(pr(), [1, 1])
    with pytest.raises(ArityError):
        marginalize(pr(), [3])


def test_marginalize_detects_signaling():
    # party 2's output copies party 1's input: tracing out party 1 signals
    probs = [ZERO] * 16
    for x in range(4):
        x1 = x & 1
        for a1 in range(2):
            probs[(x << 2) | (x1 << 1) | a1] = HALF
    box = BoxTable(2, probs)
    with pytest.raises(SignalingError) as err:
        marginalize(box, [2])
    assert err.value.party == 1
    # keeping the signaling party instead is fine
    assert marginalize(box, [1]) == marginalize(mixed(2), [1])


def test_permute_parties_round_trip():
    box = tensor(pr(), deterministic_local([(1, 0)]))
    swapped = permute_parties(box, [3, 1, 2])
    assert swapped != box
    assert permute_parties(swapped, [2, 3, 1]) == box


def test_merge_parties_wiring():
    # wiring the two ends of one PR box: output is x1 AND x2 = x AND x = x
    merged = merge_parties(pr(), 1, 2)
    assert merged.n == 1
    for x in (0, 1):
        assert merged.prob(x, x & x) == ONE
    with pytest.raises(ArityError):
        merge_parties(pr(), 1, 1)


def test_merge_parties_slot_placement():
    # merged user lands at min(i, j); later parties shift down
    box = tensor(pr(), pr())
    merged = merge_parties(box, 2, 3)
    assert merged.n == 3
    assert marginalize(merged, [1]) == marginalize(pr(), [1])


def test_validate_flags_bad_tables():
    good = validate(pr())
    assert good.all_ok and good.normalized and good.nonnegative
    assert good.nonsignaling == {1: True, 2: True}

    short = [p * HALF for p in pr().probs]
    report = validate(BoxTable(2, short))
    assert not report.normalized and not report.all_ok

    quasi = BoxTable(2, [2 * p - q for p, q in zip(pr().probs, anti_pr().probs)])
    report = validate(quasi)
    assert not report.nonnegative


def test_box_json_round_trip():
    for box in (pr(), sb(), failure(2), isotropic(2, Scalar(0, Fraction(1, 2)))):
        assert BoxTable.from_json(box.to_json()) == box


def test_box_json_rejects_malformed_documents():
    doc = pr().to_json()
    doc["order"] = "party1-msb"
    with pytest.raises(SpecFileError):
        BoxTable.from_json(doc)
    doc = pr().to_json()
    doc["probs"].append(doc["probs"][0])
    with pytest.raises(SpecFileError):
        BoxTable.from_json(doc)
    with pytest.raises(SpecFileError):
        BoxTable.from_json({"n": 0, "order": "party1-lsb", "probs": []})


def test_zero_entries_are_omitted_from_json():
    doc = pr().to_json()
    assert len(doc["probs"]) == 8


xis = st.fractions(min_value=Fraction(-1), max_value=Fraction(1), max_denominator=16)


@given(xis, xis)
@settings(max_examples=40, deadline=None)
def test_isotropic_family_is_closed_under_mixing(x1, x2):
    blend = mix([(HALF, isotropic(2, Fraction(x1))), (HALF, isotropic(2, Fraction(x2)))])
    assert blend == isotropic(2, Fraction(x1 + x2, 2))


@given(st.integers(min_value=2, max_value=5))
@settings(max_examples=10, deadline=None)
def test_gsb_and_failure_validate(n):
    assert validate(gsb(n)).all_ok
    assert validate(failure(n)).all_ok
    assert validate(isotropic(n, Fraction(1, 3))).all_ok
