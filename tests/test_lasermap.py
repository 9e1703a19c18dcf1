import cmath
import math

import pytest

from anyonpt import (
    CavityParams,
    DomainError,
    map_to_anyonic,
    mode_locking_threshold,
)


def cavity(**kw):
    base = dict(D=1.0, Dg=0.0, delta1=0.2, delta2=0.0, g=0.05, l=0.05, Tm=1.0, TR=1.0)
    base.update(kw)
    return CavityParams(**base)


class TestMapping:
    def test_dispersion_only_cavity(self):
        m = map_to_anyonic(cavity(Dg=0.0))
        assert m.params.phi == 0.0
        assert m.gain_balanced and m.modulators_tuned

    def test_balanced_filtering_gives_pi_over_4(self):
        m = map_to_anyonic(cavity(Dg=1.0, delta2=0.2))
        assert m.params.phi == pytest.approx(math.pi / 4, rel=1e-14)
        assert m.modulators_tuned
        # detuned modulators flagged
        m2 = map_to_anyonic(cavity(Dg=1.0, delta2=0.1))
        assert not m2.modulators_tuned

    def test_synchronized_modulation_gives_zero_drift(self):
        m = map_to_anyonic(cavity(Tm=1.0, TR=1.0))
        assert m.params.v == 0.0
        m2 = map_to_anyonic(cavity(Tm=0.8, TR=1.0))
        assert m2.params.v == pytest.approx(0.2, rel=1e-14)

    def test_gain_imbalance_flagged(self):
        m = map_to_anyonic(cavity(g=0.06))
        assert not m.gain_balanced

    def test_unmodulated_cavity_trivially_tuned(self):
        m = map_to_anyonic(cavity(delta1=0.0, delta2=0.0, Dg=0.5))
        assert m.modulators_tuned

    def test_coefficient_phase_identity(self):
        # phase of (-D + i Dg) is pi - phi for every valid cavity
        for dg in (0.0, 0.3, 1.0, 4.0):
            m = map_to_anyonic(cavity(Dg=dg, delta2=0.2 * dg))
            phase = cmath.phase(complex(-1.0, dg))
            assert phase == pytest.approx(math.pi - m.params.phi, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            map_to_anyonic(cavity(D=0.0))
        with pytest.raises(DomainError):
            map_to_anyonic(cavity(delta1=0.0, delta2=0.3))
        with pytest.raises(DomainError):
            map_to_anyonic(cavity(D=-1.0, Dg=0.5))
        with pytest.raises(DomainError):
            CavityParams(D=1.0, Dg=-0.1, delta1=0, delta2=0, g=0, l=0, Tm=1, TR=1)
        with pytest.raises(DomainError):
            CavityParams(D=1.0, Dg=0.0, delta1=0, delta2=0, g=0, l=0, Tm=1, TR=0.0)


class TestThreshold:
    def test_composed_value(self):
        # phi = pi/3 cavity: threshold is the critical drift 4/sqrt(3)
        c = cavity(Dg=math.tan(math.pi / 3), delta2=0.2 * math.tan(math.pi / 3))
        thr = mode_locking_threshold(c, -1.0)
        assert thr == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-12)

    def test_no_threshold_at_phi_zero(self):
        assert mode_locking_threshold(cavity(Dg=0.0), -1.0) == math.inf

    def test_depth_scaling(self):
        c = cavity(Dg=1.0, delta2=0.2)
        assert mode_locking_threshold(c, -2.0) == pytest.approx(
            math.sqrt(2.0) * mode_locking_threshold(c, -1.0), rel=1e-12
        )

    def test_monotone_in_filtering_ratio(self):
        thresholds = [
            mode_locking_threshold(cavity(Dg=dg, delta2=0.2 * dg), -1.0)
            for dg in (0.2, 0.5, 1.0, 2.0, 5.0)
        ]
        assert all(a > b for a, b in zip(thresholds, thresholds[1:]))

    def test_positive_depth_rejected(self):
        with pytest.raises(DomainError):
            mode_locking_threshold(cavity(Dg=1.0, delta2=0.2), 1.0)
