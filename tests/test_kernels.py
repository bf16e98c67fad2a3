import cmath
import itertools
import math
import random

import numpy as np
import pytest

from group_sums import (apply_point, elements, group_sum_kernel, reproducing_check,
                        reproducing_loop, series_kernel)
from hardyq import invariants, kernels
from hardyq.groups import make_character, make_group
from hardyq.invariants import basic_map, ell
from hardyq.kernels import (
    DomainError,
    KernelSpec,
    SeriesKernel,
    base_kernel,
    ellipsoid_constants,
    in_cartan3_rank2,
    make_kernel_spec,
    quotient_kernel,
    tetrablock_kernel,
)
from hardyq.laurent import LaurentPoly
from hardyq.toeplitz import QuotientRealization


def rnd_pt(rng, n, radius=0.7):
    return tuple(
        rng.uniform(0.05, radius) * cmath.exp(2j * math.pi * rng.random())
        for _ in range(n)
    )


def product_formula(z, w):
    out = 1.0 + 0j
    for zi in z:
        for wj in w:
            out /= 1.0 - zi * wj.conjugate()
    return out


class TestBaseKernels:
    def test_polydisc_origin(self):
        assert base_kernel("polydisc", (0, 0), (0, 0)) == 1

    def test_ball_origin(self):
        assert base_kernel("ball", (0, 0), (0, 0)) == 1

    def test_ball_closed_form_vs_series(self):
        # sum_k k_alpha^2 r^(2 alpha_1) against (1 - r^2)^(-2) on the diagonal
        r = 0.5
        val = base_kernel("ball", (r, 0), (r, 0))
        series = sum(
            (k + 1) * r ** (2 * k) for k in range(61)
        )  # k_{(k,0)}^2 = (k+1)!/k!1! = k+1 for n=2
        assert abs(val - series) < 1e-9

    def test_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            base_kernel("polydisc", (1.2, 0), (0, 0))
        with pytest.raises(DomainError):
            base_kernel("ball", (0.9, 0.9), (0, 0))

    def test_cartan3_membership(self):
        assert in_cartan3_rank2((0.1, 0.05, 0.4))
        assert not in_cartan3_rank2((1.1, 0.0, 0.0))

    def test_cartan3_diagonal_positive(self):
        z = (0.1, 0.05, 0.4)
        v = base_kernel("cartan3rank2", z, z)
        assert abs(v.imag) < 1e-12 and v.real > 1

    def test_cartan3_hermitian(self):
        rng = random.Random(3)
        for _ in range(5):
            z = tuple(0.25 * x for x in rnd_pt(rng, 3, 1.0))
            w = tuple(0.25 * x for x in rnd_pt(rng, 3, 1.0))
            a = base_kernel("cartan3rank2", z, w)
            b = base_kernel("cartan3rank2", w, z)
            assert abs(a - b.conjugate()) < 1e-10 * abs(a)


class TestQuotientKernel:
    def test_symmetrized_bidisc_identity(self):
        spec = make_kernel_spec("polydisc", "G(1,1,2)", "sgn")
        rng = random.Random(7)
        for _ in range(25):
            z, w = rnd_pt(rng, 2), rnd_pt(rng, 2)
            got = quotient_kernel(spec, z, w)
            want = product_formula(z, w)
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_symmetrized_tridisc_identity(self):
        spec = make_kernel_spec("polydisc", "G(1,1,3)", "sgn")
        rng = random.Random(8)
        for _ in range(10):
            z, w = rnd_pt(rng, 3), rnd_pt(rng, 3)
            got = quotient_kernel(spec, z, w)
            want = product_formula(z, w)
            assert abs(got - want) <= 1e-9 * abs(want)

    @pytest.mark.parametrize("gname", ["G(2,2,2)", "G(3,3,2)", "G(2,1,2)"])
    def test_diagonal_positivity(self, gname):
        spec = make_kernel_spec("polydisc", gname, "sgn")
        rng = random.Random(9)
        for _ in range(5):
            z = rnd_pt(rng, 2)
            v = quotient_kernel(spec, z, z)
            assert abs(v.imag) < 1e-9 * abs(v)
            assert v.real > 0

    @pytest.mark.parametrize("gname", ["G(2,2,2)", "G(2,1,2)", "G(3,1,2)"])
    def test_invariance_under_group_motion(self, gname):
        g = make_group(gname)
        spec = make_kernel_spec("polydisc", gname, "sgn")
        rng = random.Random(10)
        for _ in range(4):
            z, w = rnd_pt(rng, 2), rnd_pt(rng, 2)
            base = quotient_kernel(spec, z, w)
            for x in elements(g):
                moved = quotient_kernel(spec, apply_point(x, z), w)
                assert abs(moved - base) <= 1e-9 * abs(base)

    def test_hermitian_symmetry(self):
        spec = make_kernel_spec("polydisc", "G(2,1,2)", "sgn")
        rng = random.Random(11)
        for _ in range(5):
            z, w = rnd_pt(rng, 2), rnd_pt(rng, 2)
            a = quotient_kernel(spec, z, w)
            b = quotient_kernel(spec, w, z)
            assert abs(a - b.conjugate()) <= 1e-9 * abs(a)

    def test_gram_psd(self):
        spec = make_kernel_spec("polydisc", "G(2,2,2)", "sgn")
        rng = random.Random(12)
        pts = [rnd_pt(rng, 2) for _ in range(6)]
        gram = np.array([[quotient_kernel(spec, z, w) for w in pts] for z in pts])
        eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        assert eigs.min() >= -1e-8 * np.trace(gram).real

    def test_singular_point_raises(self):
        # rho1 on G(4,4,2) has split residues; ell_rho1 = z_1^2 + z_2^2
        # vanishes at the origin and on z_1 = i z_2, and the closed form,
        # which does not divide by it, matches the series kernel there
        spec = make_kernel_spec("polydisc", "G(4,4,2)", "rho1")
        series = SeriesKernel(spec, 30)
        w = (0.3, 0.1)
        for z in [(0.0, 0.0), (-0.1 + 0.3j, 0.3 + 0.1j)]:
            assert spec.ellp.poly.eval(z) == 0
            got = quotient_kernel(spec, z, w)
            want = series.eval(spec.bmap.eval(z), spec.bmap.eval(w))
            assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("gname", ["G(1,1,2)", "G(2,1,2)", "G(4,2,3)"])
    def test_sign_kernel_has_no_singular_point(self, gname):
        # the closed form does not divide by ell_sgn: on its zero set (here
        # z_1 = z_2 and the origin) it returns the Cauchy product
        spec = make_kernel_spec("polydisc", gname, "sgn")
        g = spec.group
        w = (0.2, -0.4 + 0.2j, 0.1 + 0.1j)[:g.n]
        for z in [(0.0,) * g.n, (0.3 + 0.1j,) * g.n]:
            s = 1.0
            for a, b in zip(z, w):
                s *= a * b.conjugate()
            want = sum(s ** (g.q * t) for t in range(g.p))
            for a in z:
                for b in w:
                    want /= 1 - (a * b.conjugate()) ** g.m
            assert abs(quotient_kernel(spec, z, w) - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("domain,group,z,w", [
        ("polydisc", "G(2,1,2)", (1.2, 0.3j), (0.2, 0.1)),
        ("ball", "Z(2)@1^3", (0.8, 0.5, 0.5j), (0.2, 0.1, 0.1)),
        # on the zero set of ell_sgn = z1 - z2, but outside first
        ("polydisc", "G(1,1,2)", (2.0, 2.0), (0.2, 0.1)),
    ])
    def test_point_outside_domain_raises(self, domain, group, z, w):
        spec = make_kernel_spec(domain, group, "sgn")
        with pytest.raises(DomainError, match=f"not in the {domain}"):
            quotient_kernel(spec, z, w)

    def test_ball_singularity_floor_uses_ball_margin(self):
        # ell_sgn = 2 z_1 on Z(2)@1^3.  At z = (eps, 0.6, 0.6), close to the
        # sphere (1 - ||z|| = 0.151), the closed form matches the series
        # kernel for every |ell| from 2e-3 down to 0
        spec = make_kernel_spec("ball", "Z(2)@1^3", "sgn")
        series = SeriesKernel(spec, 20)
        w = (0.3, -0.2j, 0.1)
        y = spec.bmap.eval(w)
        for z1 in (1e-3, 1e-7, 5e-8, 0.0):
            z = (z1, 0.6, 0.6)
            want = series.eval(spec.bmap.eval(z), y)
            assert abs(quotient_kernel(spec, z, w) - want) <= 1e-12 * abs(want)

    def test_ball_group_sum_refuses_cancellation(self):
        # Z(2)@1^3, sgn: the two terms S(z, w) - S((-z_1, z_2, z_3), w) agree
        # to about 6 |z_1 w_1| = 6e-11 of their size, so the plain group sum
        # keeps few correct digits; the closed form sums no such terms
        spec = make_kernel_spec("ball", "Z(2)@1^3", "sgn")
        z, w = (1e-6, 0.5, 0.5), (1e-5, 0.3, -0.2j)
        got = quotient_kernel(spec, z, w)
        x, y = spec.bmap.eval(z), spec.bmap.eval(w)
        assert abs(series_kernel(spec, x, y, 20) - got) <= 1e-12 * abs(got)
        plain, _ = group_sum_kernel(spec, z, w)
        assert abs(plain - got) > 1e-7 * abs(got)  # what the group sum gives

    def test_trivial_character_kernel(self):
        # invariant-function kernel: group average of the product kernel
        spec = make_kernel_spec("polydisc", "G(1,1,2)", "trivial")
        rng = random.Random(13)
        z, w = rnd_pt(rng, 2), rnd_pt(rng, 2)
        got = quotient_kernel(spec, z, w)
        g = spec.group
        want = sum(
            base_kernel("polydisc", apply_point(x, z), w) for x in elements(g)
        ) / len(g)
        assert abs(got - want) < 1e-12 * abs(want)


# Points where the signed group sum over G cancels catastrophically: draw 14
# of numpy.random.default_rng(3), z then w, each coordinate re + 1j * im
# with re, im uniform in [-0.4, 0.4] (the worst of the first 20 draws for
# both groups), and a point from a `kernel eval` run on G(4,2,3).  The
# references are the sign kernels as 60-digit group sums over every element
# (mpmath at 60 digits, ell_sgn = (m^n/p) (z_1 z_2 z_3)^(q-1) prod_{i<j}
# (z_i^m - z_j^m), c^2 = (m^n/p)^2 3!), rounded to doubles.  The plain
# double-precision group sum returned 897.96 + 37.97j, 6.410 - 3.616j and
# 1.0033386 + 0.0009626j at these points.
_DRAW_14 = (
    (-0.06743846086462213 + 0.13531005850573918j, 0.2778431761853669 - 0.07575372630085397j,
     -0.21058646186373517 - 0.18787584786557626j),
    (0.16311128642174955 + 0.212248247014158j, -0.15339459542812844 - 0.003840073120769727j,
     -0.10249524063240872 + 0.22713484876404777j),
)
CANCELLING_POINTS = [
    ("G(3,1,3)", *_DRAW_14, 0.999692858898008 + 0.00015092987958208585j),
    ("G(4,2,3)", *_DRAW_14, 1.0000076904007182 + 2.1842027013152276e-05j),
    ("G(4,2,3)", (0.3 + 0.1j, 0.1j, 0.5 - 0.2j), (0.2, -0.4 + 0.2j, 0.1 + 0.1j),
     1.0027948375184668 + 0.0010191747168125421j),
]


class TestClosedForm:
    @pytest.mark.parametrize("gname,z,w,want", CANCELLING_POINTS)
    def test_sign_kernel_at_cancelling_points(self, gname, z, w, want):
        spec = make_kernel_spec("polydisc", gname, "sgn")
        assert abs(quotient_kernel(spec, z, w) - want) <= 4 * 2.0 ** -52 * abs(want)

    def test_no_group_tables_on_g316(self, no_element_tables):
        # 524,880 elements; the values are the S_6 sums of the closed form,
        # summed here in Python: (1/6!) perm M for trivial, the Cauchy
        # product prod_ij M_ij for sgn, M_ij = 1/(1 - z_i^3 conj(w_j)^3)
        g = make_group("G(3,1,6)")
        z = (0.5, 0.3j, -0.2 + 0.4j, 0.1 - 0.6j, 0.7j, -0.35)
        w = (0.2 + 0.1j, -0.45, 0.3 - 0.3j, 0.6j, 0.15, -0.1 - 0.5j)
        M = [[1 / (1 - a ** 3 * b.conjugate() ** 3) for b in w] for a in z]
        perm = sum(math.prod(M[p[i]][i] for i in range(6))
                   for p in itertools.permutations(range(6)))
        triv = quotient_kernel(KernelSpec("polydisc", g, make_character(g, "trivial")), z, w)
        assert abs(triv - perm / 720) <= 1e-13 * abs(perm / 720)
        cauchy = math.prod(x for row in M for x in row)
        sgn = quotient_kernel(KernelSpec("polydisc", g, make_character(g, "sgn")), z, w)
        assert abs(sgn - cauchy) <= 1e-13 * abs(cauchy)


# every G(m,p,n) with 3 <= n <= 5 and |G| <= 5,000, and the n = 2 ones with
# m <= 12 (|G| <= 5,000 holds for 4,042 groups with n = 2, m up to 2,500,
# whose permanent is the same 2 x 2 recursion)
SMALL_GROUPS = [f"G({m},{p},{n})" for n in range(2, 6) for m in range(1, 29)
                for p in range(1, m + 1)
                if m % p == 0 and m ** n * math.factorial(n) // p <= 5000 and (n > 2 or m <= 12)]


def cauchy_permanent(z, w, m):
    """perm M as the sum over itertools.permutations of prod_i M[i][sigma i],
    M_ij = 1/(1 - z_i^m conj(w_j)^m)."""
    M = [[1 / (1 - a ** m * b.conjugate() ** m) for b in w] for a in z]
    return sum(math.prod(M[i][s] for i, s in enumerate(sigma))
               for sigma in itertools.permutations(range(len(z))))


class TestPermanent:
    """The trivial-character polydisc kernel, (1/n!) sum_t s^(q t) perm M,
    whose permanent is the subset recursion of kernels._permanent."""

    @pytest.mark.parametrize("gname", SMALL_GROUPS)
    def test_matches_group_sum(self, gname):
        spec = make_kernel_spec("polydisc", gname, "trivial")
        rng = random.Random(len(spec.group))
        z, w = rnd_pt(rng, spec.group.n), rnd_pt(rng, spec.group.n)
        want, _ = group_sum_kernel(spec, z, w)
        assert abs(quotient_kernel(spec, z, w) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("gname", ["G(1,1,6)", "G(3,1,6)", "G(2,2,7)", "G(3,1,7)",
                                       "G(1,1,8)", "G(3,1,8)"])
    def test_matches_permutation_sum(self, gname):
        spec = make_kernel_spec("polydisc", gname, "trivial")
        g = spec.group
        rng = random.Random(g.n)
        z, w = rnd_pt(rng, g.n, 0.9), rnd_pt(rng, g.n, 0.9)
        s = math.prod(a * b.conjugate() for a, b in zip(z, w))
        want = (sum(s ** (g.q * t) for t in range(g.p)) * cauchy_permanent(z, w, g.m)
                / math.factorial(g.n))
        assert abs(quotient_kernel(spec, z, w) - want) <= 1e-12 * abs(want)

    def test_steps_cover_each_subset_once(self):
        # n 2^(n-1) steps, each adding one column to a smaller subset
        g = make_group("G(2,1,5)")
        steps = kernels._permanent_steps(g)
        assert [s for s, _, _ in steps] == list(range(31))
        assert sum(len(t) for _, _, t in steps) == 5 * 2 ** 4
        for s, row, targets in steps:
            assert row == bin(s).count("1")
            assert all(t == s | 1 << j and not s >> j & 1 for j, t in targets)
        assert kernels._permanent_steps(g) is steps


class TestLazyEll:
    """ell_rho is built on the first read of KernelSpec.ellp: never by
    quotient_kernel, once by the series kernel."""

    @pytest.fixture
    def ell_builds(self, monkeypatch):
        built = []

        def recording(char, *args, **kwargs):
            built.append(char.name)
            return ell(char, *args, **kwargs)

        monkeypatch.setattr(kernels, "ell", recording)
        return built

    def test_uniform_character_builds_no_ell(self, monkeypatch, ell_builds):
        def forbidden(*args):
            raise AssertionError("Jacobian expanded")

        monkeypatch.setattr(invariants, "jacobian", forbidden)
        spec = make_kernel_spec("polydisc", "G(3,1,6)", "sgn")
        z = (0.5, 0.3j, -0.2 + 0.4j, 0.1 - 0.6j, 0.7j, -0.35)
        w = (0.2 + 0.1j, -0.45, 0.3 - 0.3j, 0.6j, 0.15, -0.1 - 0.5j)
        want = math.prod(1 / (1 - a ** 3 * b.conjugate() ** 3) for a in z for b in w)
        assert abs(quotient_kernel(spec, z, w) - want) <= 1e-13 * abs(want)
        assert ell_builds == []
        # ell is in closed form: reading it expands no Jacobian either
        assert spec.ellp.poly.total_degree() == 57 and ell_builds == ["sgn"]

    def test_split_ball_and_series_read_ell_once(self, ell_builds):
        z, w = (0.3 + 0.1j, 0.1 - 0.2j), (0.2, 0.1j)
        split = make_kernel_spec("polydisc", "G(4,4,2)", "rho1")
        ball = make_kernel_spec("ball", "Z(3)@1^2", "sgn")
        assert ell_builds == []
        for spec in (split, ball):
            quotient_kernel(spec, z, w)
            quotient_kernel(spec, w, z)
        assert ell_builds == []
        SeriesKernel(split, 4)
        SeriesKernel(split, 6)
        SeriesKernel(ball, 4)
        assert ell_builds == ["rho1", "sgn"]

    def test_given_ell_is_kept(self, ell_builds):
        g = make_group("G(2,1,2)")
        ch = make_character(g, "det")
        ep = ell(ch)
        spec = KernelSpec("polydisc", g, ch, bmap=basic_map(g), ellp=ep)
        assert spec.ellp is ep and ell_builds == []


class TestSeriesKernel:
    def test_origin_value(self):
        spec = make_kernel_spec("polydisc", "G(1,1,2)", "sgn")
        assert abs(series_kernel(spec, (0, 0), (0, 0), 6) - 1) < 1e-12

    def test_agrees_with_quotient(self):
        spec = make_kernel_spec("polydisc", "G(1,1,2)", "sgn")
        z, w = (0.3, 0.1), (0.25, -0.2)
        x, y = spec.bmap.eval(z), spec.bmap.eval(w)
        got = series_kernel(spec, x, y, 40)
        want = quotient_kernel(spec, z, w)
        assert abs(got - want) <= 1e-6

    def test_g113_sgn_d12_builds_and_matches_closed_form(self):
        # the float elimination raised NotInIsotypicError on this build; at
        # radius 0.15 the truncation after degree 12 is below 1e-20
        spec = make_kernel_spec("polydisc", "G(1,1,3)", "sgn")
        sk = SeriesKernel(spec, 12)
        assert len(sk.basis_down) == math.comb(13, 3) == 286
        rng = random.Random(5)
        for _ in range(6):
            z, w = rnd_pt(rng, 3, 0.15), rnd_pt(rng, 3, 0.15)
            want = product_formula(z, w)
            got = sk.eval(spec.bmap.eval(z), spec.bmap.eval(w))
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_d40_rows_are_exact(self):
        # ell_sgn = z_1 - z_2 on G(1,1,2), and |S| P_sgn z^(a,b) = z^(a,b) - z^(b,a)
        spec = make_kernel_spec("polydisc", "G(1,1,2)", "sgn")
        sk = SeriesKernel(spec, 40)
        bm, sgn = spec.bmap, spec.character
        assert spec.ellp.poly.same_terms(LaurentPoly(2, {(1, 0): 1, (0, 1): -1}))
        for rep in sk.reps:
            row = bm.row(sgn, rep)
            assert all(type(c) is int for c in row.terms.values())
            orbit = LaurentPoly(2, {rep: 1, rep[::-1]: -1})
            assert (spec.ellp.poly * bm.pull(row)).same_terms(orbit)
        # the float elimination read 26334.0208 here; the element is the row
        # times c s / kappa = sqrt(2) / (2 sqrt(1/2)), 1 up to two roundings
        assert sk.reps[400] == (0, 40) and bm.row(sgn, (0, 40)).coeff((5, 17)) == 26334
        assert abs(sk.basis_down[400].coeff((5, 17)) - 26334) <= 4 * 2.0 ** -52 * 26334

    def test_empty_truncation(self):
        spec = make_kernel_spec("polydisc", "G(1,1,2)", "sgn")
        assert series_kernel(spec, (0.1, 0.1), (0.1, 0.1), 0) == 0

    def test_monotone_convergence_on_grid(self):
        spec = make_kernel_spec("polydisc", "G(1,1,2)", "sgn")
        z, w = (0.45, -0.2), (0.3, 0.35)
        x, y = spec.bmap.eval(z), spec.bmap.eval(w)
        want = quotient_kernel(spec, z, w)
        errs = [abs(SeriesKernel(spec, d).eval(x, y) - want) for d in (6, 12, 18, 24)]
        assert all(errs[i + 1] <= errs[i] + 1e-15 for i in range(len(errs) - 1))

    def test_ball_quotient_series(self):
        spec = make_kernel_spec("ball", "Z(3)@1^2", "sgn")
        z, w = (0.3 + 0.1j, 0.2), (0.1, -0.25 + 0.2j)
        got = quotient_kernel(spec, z, w)
        x, y = spec.bmap.eval(z), spec.bmap.eval(w)
        want = series_kernel(spec, x, y, 60)
        assert abs(got - want) <= 1e-9 * abs(got)

    def test_ball_quotient_isotypic_sum_oracle(self):
        # P_rho applied to the closed-form ball kernel: keep alpha_1 = 2 mod 3
        spec = make_kernel_spec("ball", "Z(3)@1^2", "sgn")
        z, w = (0.25, 0.3), (0.2 + 0.1j, -0.3)
        direct = 0j
        for a1 in range(2, 40, 3):
            for a2 in range(0, 40):
                ksq = math.factorial(1 + a1 + a2) / (
                    math.factorial(a1) * math.factorial(a2)
                )
                direct += (
                    ksq * z[0] ** a1 * z[1] ** a2
                    * (w[0].conjugate() ** a1) * (w[1].conjugate() ** a2)
                )
        lz = spec.ellp.poly.eval(z)
        lw = spec.ellp.poly.eval(w)
        want = spec.ellp.cnorm**2 * direct / (lz * lw.conjugate())
        got = quotient_kernel(spec, z, w)
        assert abs(got - want) <= 1e-9 * abs(got)


class TestTetrablock:
    def test_diagonal_positive(self):
        z = (0.1, 0.05, 0.4)
        v = tetrablock_kernel(z, z)
        assert abs(v.imag) < 1e-12 and v.real > 0

    def test_sign_flip_invariance(self):
        z = (0.1 + 0.05j, 0.03, 0.35)
        w = (0.02, 0.1 - 0.02j, 0.3)
        flip = lambda p: (p[0], p[1], -p[2])
        a = tetrablock_kernel(z, w)
        assert abs(tetrablock_kernel(flip(z), flip(w)) - a) < 1e-10 * abs(a)

    def test_gram_psd(self):
        rng = random.Random(5)
        pts = []
        while len(pts) < 5:
            cand = (
                0.2 * cmath.exp(2j * math.pi * rng.random()) * rng.random(),
                0.2 * cmath.exp(2j * math.pi * rng.random()) * rng.random(),
                0.2 + 0.3 * rng.random(),
            )
            if in_cartan3_rank2(cand):
                pts.append(cand)
        gram = np.array([[tetrablock_kernel(z, w) for w in pts] for z in pts])
        eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        assert eigs.min() >= -1e-9 * max(np.trace(gram).real, 1.0)

    def test_branch_locus_rejected(self):
        with pytest.raises(DomainError, match="branch locus"):
            tetrablock_kernel((0.1, 0.1, 0.0), (0.1, 0.1, 0.2))


def pushforward_moment(spec, key):
    """Integral of t^key (key of length 2n, the second half the conj(t)
    exponents) against the pushforward measure |ell|^2 of the spec."""
    return QuotientRealization.shared(spec.character, spec.bmap).moment(key)


class TestPushforward:
    def test_trivial_total_mass(self):
        spec = make_kernel_spec("polydisc", "G(1,1,2)", "trivial")
        assert abs(pushforward_moment(spec, (0, 0, 0, 0)) - 1) < 1e-12

    def test_sgn_total_mass_is_c_squared(self):
        spec = make_kernel_spec("polydisc", "G(1,1,2)", "sgn")
        got = pushforward_moment(spec, (0, 0, 0, 0))
        assert abs(got - 2) < 1e-12

    def test_t1_squared_mass(self):
        # |t1|^2 against the sgn measure equals ||theta_1 ell||^2 = 2
        # (the coefficient expansion of |z1^2 - z2^2|^2 has constant term 2)
        spec = make_kernel_spec("polydisc", "G(1,1,2)", "sgn")
        got = pushforward_moment(spec, (1, 0, 1, 0))
        from hardyq.laurent import torus_inner

        ep = spec.ellp
        want = torus_inner(spec.bmap.components[0] * ep.poly,
                           spec.bmap.components[0] * ep.poly)
        assert abs(got - want) < 1e-12
        assert abs(got - 2) < 1e-12

    def test_matches_monte_carlo_free_check(self):
        # independent small oracle: expand (f o theta)|ell|^2 on a torus grid
        spec = make_kernel_spec("polydisc", "G(1,1,2)", "sgn")
        N = 8
        total = 0j
        for j in range(N):
            for k in range(N):
                z = (cmath.exp(2j * math.pi * j / N), cmath.exp(2j * math.pi * k / N))
                t = spec.bmap.eval(z)
                lv = spec.ellp.poly.eval(z)
                total += t[0] * t[1].conjugate() * abs(lv) ** 2
        total /= N**2
        got = pushforward_moment(spec, (1, 0, 0, 1))  # t1 conj(t2)
        assert abs(got - total) < 1e-10


class TestReproducing:
    def test_constant(self):
        spec = make_kernel_spec("polydisc", "G(1,1,2)", "sgn")
        assert reproducing_check(spec, LaurentPoly.constant(2, 1.0), (0.2, 0.4), 4) < 1e-12

    def test_degree_dominated(self):
        spec = make_kernel_spec("polydisc", "G(1,1,2)", "sgn")
        f = LaurentPoly(2, {(2, 0): 1.0})  # t1^2
        assert reproducing_check(spec, f, (0.4, -0.3), 6) <= 1e-9

    def test_truncation_residual_reported(self):
        spec = make_kernel_spec("polydisc", "G(1,1,2)", "sgn")
        f = LaurentPoly(2, {(2, 0): 1.0})
        res = reproducing_check(spec, f, (0.4, -0.3), 1)
        assert res > 1e-4  # truncation below deg f leaves a visible residual

    def test_ball_reproducing(self):
        spec = make_kernel_spec("ball", "Z(2)@1^2", "sgn")
        f = LaurentPoly(2, {(1, 0): 1.0, (0, 1): 0.5j})
        assert reproducing_check(spec, f, (0.3, 0.2), 8) <= 1e-9

    @pytest.mark.parametrize("domain, group, bound", [
        ("polydisc", "G(1,1,2)", 1), ("polydisc", "G(1,1,2)", 4),
        ("polydisc", "G(1,1,2)", 6), ("ball", "Z(2)@1^2", 8),
    ])
    def test_matches_per_element_loop(self, domain, group, bound):
        spec = make_kernel_spec(domain, group, "sgn")
        f = LaurentPoly(2, {(2, 0): 1.0, (0, 1): 0.5j, (1, 1): -0.25})
        w = (0.4, -0.3) if domain == "polydisc" else (0.3, 0.2)
        got = reproducing_check(spec, f, w, bound)
        assert abs(got - reproducing_loop(spec, f, w, bound)) <= 1e-13


class TestEllipsoidConstants:
    def test_recomputed_values(self):
        rep2 = ellipsoid_constants(3, 2)
        assert abs(rep2["c_squared_recomputed"] - 3) < 1e-12
        rep3 = ellipsoid_constants(3, 3)
        assert abs(rep3["c_squared_recomputed"] - 2 * 3 / 4) < 1e-12

    def test_discrepancy_is_flagged_not_silenced(self):
        for m in (2, 3, 4):
            for n in (2, 3):
                rep = ellipsoid_constants(m, n)
                assert rep["discrepancy"] is True
                assert rep["c_published"] is not None


class TestSpecValidation:
    def test_group_without_character_rejected(self):
        g = make_group("G(1,1,2)")
        with pytest.raises(DomainError):
            KernelSpec("polydisc", g, None)

    def test_ball_quotient_needs_cyclic(self):
        g = make_group("G(1,1,2)")
        ch = make_character(g, "sgn")
        with pytest.raises(DomainError):
            KernelSpec("ball", g, ch)

    def test_cartan_quotient_hardcoded_only(self):
        g = make_group("G(1,1,2)")
        ch = make_character(g, "sgn")
        with pytest.raises(DomainError):
            KernelSpec("cartan3rank2", g, ch)
