import math

import pytest

from specfun import elliptic, hyper, modular
from specfun.elliptic import mu_a, phi_k_a
from specfun.errors import DomainError, UnknownIdentityError


class TestSolveModular:
    """The degree-p modular equation mu_a(s) = p mu_a(r) is solved by
    s = phi_k_a(a, 1/p, r), the one path ``identity_residual`` takes."""

    def test_one_r_a_per_solve(self, monkeypatch):
        # solves read the memo of records, so the first solve at an a
        # builds its record, whose R_a = ramanujan_R(a, 1 - a) takes the
        # only two digamma calls, and the later ones build none
        digamma = hyper.digamma
        calls = [0]

        def counted(x):
            calls[0] += 1
            return digamma(x)

        monkeypatch.setattr(hyper, "digamma", counted)
        elliptic._memo_record.cache_clear()
        for a in (0.5, 1.0 / 3.0, 0.2):
            calls[0] = 0
            for r in (0.1, 0.5, 0.9):
                phi_k_a(a, 1.0 / 3.0, r)
            assert calls[0] == 2

    def test_degree_one_is_identity(self):
        assert abs(phi_k_a(0.5, 1.0, 0.4) - 0.4) < 1e-12

    def test_forward_relation(self):
        s = phi_k_a(0.5, 0.5, 0.8)
        assert abs(mu_a(0.5, s) - 2.0 * mu_a(0.5, 0.8)) <= 1e-10

    def test_third_degree_legendre_form(self):
        for r in (0.2, 0.5, 0.8):
            assert modular.identity_residual("classical_deg3", r)[0] < 1e-7

    def test_beta_below_alpha(self):
        for p in (2.0, 3.0, 5.0):
            assert 0.0 < phi_k_a(1.0 / 3.0, 1.0 / p, 0.6) < 0.6

    def test_validation(self):
        with pytest.raises(DomainError):
            modular.identity_residual("classical_deg3", 1.0)


class TestIdentityRegistry:
    def test_registry_size_and_ids(self):
        assert len(modular.IDENTITY_IDS) == 9
        assert set(modular.IDENTITY_IDS) == {
            "classical_deg3", "classical_deg5", "classical_deg7",
            "classical_deg9_chain", "classical_deg23", "classical_mixed_357",
            "sig3_deg2", "sig3_deg5", "sig3_deg11",
        }

    def test_unknown_id(self):
        with pytest.raises(UnknownIdentityError):
            modular.identity_residual("classical_deg42", 0.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            modular.identity_residual("classical_deg7", 0.0)


class TestIdentityResiduals:
    def test_deg7_at_half(self):
        assert modular.identity_residual("classical_deg7", 0.5)[0] < 1e-7

    def test_sig3_deg2(self):
        assert modular.identity_residual("sig3_deg2", 0.3)[0] < 1e-7

    def test_deg9_chain(self):
        assert modular.identity_residual("classical_deg9_chain", 0.6)[0] < 1e-6

    @pytest.mark.parametrize("r", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_deg5_across_grid(self, r):
        assert modular.identity_residual("classical_deg5", r)[0] < 1e-6

    @pytest.mark.parametrize("iid", modular.IDENTITY_IDS)
    @pytest.mark.parametrize("r", [0.05, 0.5, 0.95])
    def test_all_registered(self, iid, r):
        assert modular.identity_residual(iid, r)[0] < 1e-6

    def test_mixed_parameterizations_individually(self):
        r = 0.45
        identity = modular.get_identity("classical_mixed_357")
        al = r * r
        be7 = phi_k_a(0.5, 1.0 / 7.0, r) ** 2
        al3 = phi_k_a(0.5, 1.0 / 3.0, r) ** 2
        be5 = phi_k_a(0.5, 1.0 / 5.0, r) ** 2
        assert abs(identity.residual_fn(al, be7)[0]) < 1e-7
        assert abs(identity.residual_fn(al3, be5)[0]) < 1e-7

    def test_square_root_variant_of_sig3_deg2_fails(self):
        # the cube-root form is registered; the square-root first term that
        # sometimes appears in print is numerically refuted
        r = 0.3
        be = phi_k_a(1.0 / 3.0, 0.5, r) ** 2
        al = r * r
        wrong = math.sqrt(al * be) + ((1.0 - al) * (1.0 - be)) ** (1.0 / 3.0) - 1.0
        assert abs(wrong) > 1e-2
        assert modular.identity_residual("sig3_deg2", r)[0] < 1e-8

    def test_sig3_deg5_uses_degree_five_solution(self):
        # beta of degree 3 does not satisfy the quintic identity
        r = 0.3
        al = r * r
        be3 = phi_k_a(1.0 / 3.0, 1.0 / 3.0, r) ** 2
        q = al * be3 * (1.0 - al) * (1.0 - be3)
        wrong = (al * be3) ** (1.0 / 3.0) + ((1.0 - al) * (1.0 - be3)) ** (1.0 / 3.0) \
            + 3.0 * q ** (1.0 / 6.0) - 1.0
        assert abs(wrong) > 1e-2
        assert modular.identity_residual("sig3_deg5", r)[0] < 1e-8
