import hashlib
import statistics

import pytest

from sp4cert import sampling
from sp4cert.errors import BadPrime, ShapeAssertionFailed, UnknownName
from sp4cert.groups import GroupLabel, member
from sp4cert.matrices import Mat2, Mat4
from sp4cert.sampling import SampleSpec, sample


def test_zero_length_is_identity():
    assert sample(SampleSpec(GroupLabel.GAMMA_1P, 3, 1, 0)) == Mat4.identity()
    assert sample(SampleSpec(GroupLabel.SL2Z, 3, 1, 0)) == Mat2.identity()


def test_a_sampler_output_outside_its_group_is_an_internal_fault(monkeypatch):
    monkeypatch.setitem(sampling._SAMPLERS, GroupLabel.GAMMA_1P, lambda rng, p, n: Mat4.diagonal(1, 1, 1, p))
    spec = SampleSpec(GroupLabel.GAMMA_1P, 3, 1, 4)
    with pytest.raises(ShapeAssertionFailed) as exc:
        sample(spec)
    assert str(exc.value) == f"sampler output fails its own predicate: {spec.describe()}"


def test_determinism():
    for label in (
        GroupLabel.GAMMA_1P,
        GroupLabel.GAMMA_TILDE_1P,
        GroupLabel.GAMMA_P2,
        GroupLabel.SL2Z,
        GroupLabel.GAMMA1_OF_P,
        GroupLabel.GAMMA1PRIME_P2,
        GroupLabel.SP_LAMBDA_Z,
    ):
        spec = SampleSpec(label, 5, 12345, 9)
        assert sample(spec) == sample(spec)


def test_validity_large_batch():
    p = 5
    for i in range(1000):
        m = sample(SampleSpec(GroupLabel.GAMMA_1P, p, i, i % 21))
        assert member(m, GroupLabel.GAMMA_1P, p)


@pytest.mark.parametrize(
    "label",
    [
        GroupLabel.GAMMA_TILDE_1P,
        GroupLabel.GAMMA_P2,
        GroupLabel.GAMMA1_OF_P,
        GroupLabel.GAMMA1PRIME_P2,
        GroupLabel.SP_LAMBDA_Z,
    ],
)
def test_validity_other_groups(label):
    p = 3
    for i in range(60):
        m = sample(SampleSpec(label, p, 40 + i, i % 11))
        assert member(m, label, p)


def test_entry_magnitudes_grow_with_length():
    p = 3

    def median_max_entry(length):
        tops = []
        for i in range(60):
            m = sample(SampleSpec(GroupLabel.GAMMA_1P, p, 100 + i, length))
            tops.append(max(abs(x.numerator) for row in m.rows for x in row))
        return statistics.median(tops)

    assert median_max_entry(20) > median_max_entry(5)


def test_seed_changes_output():
    a = sample(SampleSpec(GroupLabel.GAMMA_1P, 3, 1, 12))
    b = sample(SampleSpec(GroupLabel.GAMMA_1P, 3, 2, 12))
    assert a != b


def test_bad_prime_rejected():
    with pytest.raises(BadPrime):
        sample(SampleSpec(GroupLabel.GAMMA_1P, 6, 1, 3))


def test_unsupported_group_rejected():
    with pytest.raises(UnknownName):
        sample(SampleSpec(GroupLabel.GAMMA0_1P, 3, 1, 3))


# sha256 of repr(sample(spec).rows) over seeds 0..29 with word length
# seed % 15, recorded before the word samplers went through replay
SAMPLE_DIGESTS = {
    (GroupLabel.GAMMA_1P, 3): "bf0178d072ed6bb070e2cb569c614ba50e0cca6d5a51da5fbc016090879d2bf5",
    (GroupLabel.GAMMA_TILDE_1P, 3): "8c9da7689abd00e6f79b2520715428481767deb4b106a0e6112b0df76a4bdf04",
    (GroupLabel.GAMMA_P2, 3): "d0f189cbbc53e47ac42902ffcaea19769894049c2a6ec4e014c926cfa20d3367",
    (GroupLabel.SP_LAMBDA_Z, 3): "8c94f064447e1434241bec4bdac4ae4e11cae46551d16836aa8904d717da536f",
    (GroupLabel.SL2Z, 3): "9d5d56d10cd17b29e249421d798787d11c81437a5f1f640d983785ceae05ddf8",
    (GroupLabel.GAMMA1_OF_P, 3): "e750554cd2e4122fe3ca439d35828e12e94dcc787462d20bf5cf14c2563a95eb",
    (GroupLabel.GAMMA1PRIME_P2, 3): "efaf33e4fbc117e2904f7d327e6b0e66fb382ea21bd154ee09c363e0c34c69a2",
    (GroupLabel.GAMMA_1P, 7): "9d460b8448301c8e0e99f0574f644fe22b857f9b6104a6d70c7ba82c9a0cd5aa",
    (GroupLabel.GAMMA_TILDE_1P, 7): "2c1e073bac42bbc1cd70b05f8462e1f435f67a6c2df2e26277ce02ec4af3b59f",
    (GroupLabel.GAMMA_P2, 7): "4dd181749d2f0c530a8310e2d316b54fa7329b76c5de54e9ea8c374d26073945",
    (GroupLabel.SP_LAMBDA_Z, 7): "6b5b777aed189664e1d6658efbe04e8cb1742e89b3c885b9f65013e487e11a32",
    (GroupLabel.SL2Z, 7): "9d5d56d10cd17b29e249421d798787d11c81437a5f1f640d983785ceae05ddf8",
    (GroupLabel.GAMMA1_OF_P, 7): "0a1ee805864a5f5b64ed7c13aebb0bcc8c73a11f6e92f155dd1b91bad5857080",
    (GroupLabel.GAMMA1PRIME_P2, 7): "9bbcea7292e802a071d8e6cb40c129b9164af6db77b529520e69ef33749c341d",
}


@pytest.mark.parametrize("label, p", sorted(SAMPLE_DIGESTS, key=lambda k: (k[1], k[0].value)))
def test_samples_are_pinned(label, p):
    h = hashlib.sha256()
    for seed in range(30):
        h.update(repr(sample(SampleSpec(label, p, seed, seed % 15)).rows).encode())
    assert h.hexdigest() == SAMPLE_DIGESTS[label, p]


@pytest.mark.parametrize(
    "label", [GroupLabel.GAMMA_1P, GroupLabel.GAMMA_TILDE_1P, GroupLabel.SP_LAMBDA_Z]
)
def test_word_samples_form_no_dense_product(monkeypatch, label):
    # the words are multiplied out by GeneratorWord.replay, each letter as
    # column operations: no 4x4 product and no power
    monkeypatch.setattr(Mat4, "__mul__", lambda *a: pytest.fail("Mat4 product"))
    monkeypatch.setattr(Mat4, "__pow__", lambda *a: pytest.fail("Mat4 power"))
    for seed in range(10):
        assert member(sample(SampleSpec(label, 5, seed, 12)), label, 5)
