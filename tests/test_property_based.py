"""Property-based tests (hypothesis) of the core invariants.

These exercise the paper's analytic claims and the numerical kernels over
randomly drawn inputs: the stability circle of the resampling map, the
structure of the state-update matrix ``Q``, the analytic RBF gradients, the
regressor construction, the waveform utilities, and the element-bank layer
(random topologies and random element-to-bank partitions must assemble the
same MNA system as the scalar path).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.elements import (
    Capacitor,
    CapacitorBank,
    Inductor,
    InductorBank,
    Resistor,
    ResistorBank,
    VoltageSource,
)
from repro.circuits.netlist import GROUND, Circuit
from repro.circuits.transient import TransientOptions, TransientSolver
from repro.core.newton import newton_solve_scalar_fused
from repro.core.resampling import resampled_eigenvalue, resampling_matrix
from repro.core.stability import is_resampling_stable, simulate_scalar_test_problem
from repro.macromodel.regressor import build_regression_data
from repro.macromodel.rbf import GaussianRBFExpansion
from repro.waveforms.sampling import resample_waveform
from repro.waveforms.signals import BitPattern, TrapezoidalPulse


unit_disc = st.tuples(
    st.floats(min_value=0.0, max_value=0.999),
    st.floats(min_value=0.0, max_value=2 * np.pi),
).map(lambda rt: rt[0] * np.exp(1j * rt[1]))

taus = st.floats(min_value=1e-3, max_value=1.0)


class TestResamplingProperties:
    @given(lam=unit_disc, tau=taus)
    def test_eq16_image_stays_in_unit_disc(self, lam, tau):
        """Eq. (16)/(17): for tau <= 1 the resampled eigenvalue is stable."""
        assert abs(resampled_eigenvalue(lam, tau)) < 1.0 + 1e-12

    @given(lam=unit_disc, tau=taus)
    def test_image_lies_on_stability_circle(self, lam, tau):
        """The image lies within the circle centred at 1 - tau of radius tau."""
        lt = resampled_eigenvalue(lam, tau)
        assert abs(lt - (1.0 - tau)) <= tau * abs(lam) + 1e-12

    @given(lam=unit_disc, tau=st.floats(min_value=1.01, max_value=3.0))
    def test_unstable_tau_can_leave_unit_disc(self, lam, tau):
        """For tau > 1 the map is an extrapolation; lambda = -|lam| maps outside."""
        worst = -abs(lam) if abs(lam) > 0.5 else -0.9
        lt = resampled_eigenvalue(worst, tau)
        # the worst-case real eigenvalue exceeds the unit circle when
        # tau (1 + |lam|) > 2, which holds for tau large enough; check the
        # criterion function is consistent with the map in either case.
        assert is_resampling_stable(tau) is False
        if tau * (1 + abs(worst)) > 2.0:
            assert abs(lt) > 1.0

    @given(tau=taus, order=st.integers(min_value=1, max_value=8))
    def test_q_matrix_structure(self, tau, order):
        q = resampling_matrix(order, tau)
        assert q.shape == (order, order)
        np.testing.assert_allclose(np.diag(q), 1.0 - tau)
        if order > 1:
            np.testing.assert_allclose(np.diag(q, -1), tau)
        # Q is non-negative and every row sums to at most 1 (convexity of the
        # linear-interpolation interpretation).
        assert np.all(q >= -1e-15)
        assert np.all(q.sum(axis=1) <= 1.0 + 1e-12)

    @given(lam=unit_disc, tau=taus)
    @settings(max_examples=30)
    def test_marching_is_bounded_for_stable_tau(self, lam, tau):
        traj = simulate_scalar_test_problem(lam, tau, n_steps=100)
        assert np.all(traj <= 1.0 + 1e-9)


class TestRBFProperties:
    @given(
        data=st.data(),
        dim=st.integers(min_value=1, max_value=5),
        n_centers=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40)
    def test_gradient_matches_finite_difference(self, data, dim, n_centers):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        exp_ = GaussianRBFExpansion(
            centers=rng.normal(size=(n_centers, dim)),
            weights=rng.normal(size=n_centers),
            beta=float(rng.uniform(0.3, 2.0)),
        )
        x = rng.normal(size=dim)
        grad = exp_.gradient(x)
        h = 1e-6
        for k in range(dim):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            fd = (exp_(xp) - exp_(xm)) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25)
    def test_expansion_bounded_by_weight_sum(self, seed):
        rng = np.random.default_rng(seed)
        exp_ = GaussianRBFExpansion(
            centers=rng.normal(size=(5, 3)),
            weights=rng.normal(size=5),
            beta=float(rng.uniform(0.2, 3.0)),
        )
        x = rng.normal(size=3) * 3
        assert abs(exp_(x)) <= np.sum(np.abs(exp_.weights)) + 1e-12


class TestRegressorProperties:
    @given(
        n=st.integers(min_value=5, max_value=60),
        r=st.integers(min_value=1, max_value=4),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40)
    def test_build_regression_data_consistency(self, n, r, seed):
        if n < r + 2:
            return
        rng = np.random.default_rng(seed)
        v = rng.normal(size=n)
        i = rng.normal(size=n)
        v_now, x_v, x_i, target = build_regression_data(v, i, r)
        assert v_now.shape == (n - r,)
        assert x_v.shape == (n - r, r)
        # every row reproduces the original sequence ordering
        m = rng.integers(0, n - r)
        sample = m + r
        assert v_now[m] == v[sample]
        assert target[m] == i[sample]
        np.testing.assert_allclose(x_v[m], [v[sample - 1 - k] for k in range(r)])
        np.testing.assert_allclose(x_i[m], [i[sample - 1 - k] for k in range(r)])


class TestNewtonProperties:
    @given(
        root=st.floats(min_value=-5, max_value=5),
        slope=st.floats(min_value=0.1, max_value=10),
        x0=st.floats(min_value=-5, max_value=5),
    )
    def test_affine_solved_in_one_iteration(self, root, slope, x0):
        res = newton_solve_scalar_fused(lambda x: (slope * (x - root), slope), x0)
        assert res.converged
        assert res.x == pytest.approx(root, abs=1e-6)
        assert res.iterations <= 1

    @given(a=st.floats(min_value=0.5, max_value=3.0), b=st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=30)
    def test_monotone_nonlinear_equation(self, a, b):
        res = newton_solve_scalar_fused(
            lambda x: (a * x + np.tanh(x) - b, a + 1.0 / np.cosh(x) ** 2), 0.0
        )
        assert res.converged
        assert abs(a * res.x + np.tanh(res.x) - b) < 1e-8


def _random_partition(rng, n: int, n_parts: int):
    """Split ``range(n)`` into up to ``n_parts`` non-empty ordered runs."""
    n_parts = max(1, min(n_parts, n))
    cuts = np.sort(rng.choice(np.arange(1, n), size=n_parts - 1, replace=False)) \
        if n_parts > 1 else np.array([], dtype=int)
    bounds = [0, *cuts.tolist(), n]
    return [list(range(bounds[k], bounds[k + 1])) for k in range(len(bounds) - 1)]


def _assemble_system(circuit, backend: str, dt: float = 1e-11):
    """Static matrix and first-step RHS through the fast assembler."""
    from repro.perf.mna import FastPathAssembler

    compiled = circuit.compile()
    asm = FastPathAssembler(circuit, compiled, dt, backend=backend)
    asm.begin_run()
    ctx = asm.begin_step(dt)
    A, rhs = asm.iterate(np.zeros(compiled.n_unknowns), ctx)
    A = A if isinstance(A, np.ndarray) else A.toarray()
    return np.asarray(A), np.asarray(rhs).copy()


class TestElementBankProperties:
    """Random topologies/partitions: banked == scalar MNA system and stats."""

    def _ladder_elements(self, rng, n):
        """Scalar RLC-ladder pieces with randomised values (order R, L, C)."""
        r_vals = rng.uniform(0.5, 5.0, size=n)
        l_vals = rng.uniform(0.5e-9, 2e-9, size=n)
        c_vals = rng.uniform(5e-15, 50e-15, size=n)
        resistors, inductors, capacitors = [], [], []
        prev = "in"
        for k in range(n):
            mid, node = f"m{k + 1}", f"n{k + 1}"
            resistors.append(Resistor(f"r{k}", prev, mid, r_vals[k]))
            inductors.append(Inductor(f"l{k}", mid, node, l_vals[k]))
            capacitors.append(Capacitor(f"c{k}", node, GROUND, c_vals[k]))
            prev = node
        return resistors, inductors, capacitors

    def _circuits(self, seed, n, n_banks):
        """The scalar circuit and a randomly-partitioned banked equivalent."""
        rng = np.random.default_rng(seed)
        resistors, inductors, capacitors = self._ladder_elements(rng, n)

        scalar = Circuit("scalar")
        scalar.add(VoltageSource("vin", "in", GROUND, 1.0))
        for el in (*resistors, *inductors, *capacitors):
            scalar.add(el)
        scalar.add(Resistor("rload", f"n{n}", GROUND, 100.0))

        banked = Circuit("banked")
        banked.add(VoltageSource("vin", "in", GROUND, 1.0))
        for p, part in enumerate(_random_partition(rng, n, n_banks)):
            banked.add(ResistorBank(
                f"rb{p}",
                [resistors[k].nodes[0] for k in part],
                [resistors[k].nodes[1] for k in part],
                [resistors[k].resistance for k in part],
            ))
            banked.add(InductorBank(
                f"lb{p}",
                [inductors[k].nodes[0] for k in part],
                [inductors[k].nodes[1] for k in part],
                [inductors[k].inductance for k in part],
            ))
            banked.add(CapacitorBank(
                f"cb{p}",
                [capacitors[k].nodes[0] for k in part],
                [capacitors[k].capacitance for k in part],
            ))
        banked.add(Resistor("rload", f"n{n}", GROUND, 100.0))
        return scalar, banked

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(min_value=2, max_value=10),
        n_banks=st.integers(min_value=1, max_value=4),
        backend=st.sampled_from(["dense", "sparse"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_partition_assembles_identical_system(self, seed, n, n_banks, backend):
        scalar, banked = self._circuits(seed, n, n_banks)
        # Node unknowns share the sorted-name numbering, but branch unknowns
        # live at different offsets (scalar inductors are numbered per
        # element, banks per bank): compare through the permutation mapping
        # each scalar unknown to its banked position.
        sc, bc = scalar.compile(), banked.compile()
        assert sc.n_unknowns == bc.n_unknowns
        member = {}
        for bank in (el for el in banked.elements if isinstance(el, InductorBank)):
            base = bc.branch_index(bank.name)
            for i, (a, b) in enumerate(zip(bank.nodes_a, bank.nodes_b)):
                member[(a, b)] = base + i
        perm = np.arange(sc.n_unknowns)
        for name, offset in sc.branch_offset.items():
            if name == "vin":
                perm[offset] = bc.branch_index("vin")
            else:  # an inductor: locate its member slot by node pair
                el = scalar.element(name)
                perm[offset] = member[(el.nodes[0], el.nodes[1])]

        A_s, rhs_s = _assemble_system(scalar, backend)
        A_b, rhs_b = _assemble_system(banked, backend)
        np.testing.assert_allclose(
            A_b[np.ix_(perm, perm)], A_s, rtol=0, atol=1e-12,
            err_msg=f"static matrix mismatch ({backend})",
        )
        np.testing.assert_allclose(
            rhs_b[perm], rhs_s, rtol=0, atol=1e-12,
            err_msg=f"static rhs mismatch ({backend})",
        )

    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(min_value=2, max_value=4),
        cols=st.integers(min_value=2, max_value=4),
        n_banks=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=10, deadline=None)
    def test_mesh_resistor_partition_identical_matrix(self, seed, rows, cols,
                                                      n_banks):
        from repro.circuits.ladder import rc_grid_circuit

        rng = np.random.default_rng(seed)
        scalar, _ = rc_grid_circuit(rows, cols, banked=False)
        resistors = [el for el in scalar.elements if isinstance(el, Resistor)]
        banked = Circuit("mesh-banked")
        for el in scalar.elements:
            if not isinstance(el, Resistor):
                banked.add(el)  # same instances: reset() re-initialises them
        for p, part in enumerate(_random_partition(rng, len(resistors), n_banks)):
            banked.add(ResistorBank(
                f"rb{p}",
                [resistors[k].nodes[0] for k in part],
                [resistors[k].nodes[1] for k in part],
                [resistors[k].resistance for k in part],
            ))
        # only the shared "vin" owns a branch row, so the unknown numbering
        # is identical and the systems compare entry for entry
        for backend in ("dense", "sparse"):
            A_s, rhs_s = _assemble_system(scalar, backend)
            A_b, rhs_b = _assemble_system(banked, backend)
            np.testing.assert_allclose(A_b, A_s, rtol=0, atol=1e-12)
            np.testing.assert_allclose(rhs_b, rhs_s, rtol=0, atol=1e-12)

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(min_value=2, max_value=8),
        n_banks=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=10, deadline=None)
    def test_partition_matches_waveforms_and_factorizations(self, seed, n, n_banks):
        scalar, banked = self._circuits(seed, n, n_banks)
        waves, stats = {}, {}
        for label, circuit in (("scalar", scalar), ("banked", banked)):
            solver = TransientSolver(
                circuit, 1e-11,
                TransientOptions(backend="sparse"),
            )
            result = solver.run(3e-10, record_nodes=[f"n{n}"], record_branches=[])
            waves[label] = result.voltage(f"n{n}")
            stats[label] = solver.perf_stats
        scale = max(float(np.max(np.abs(waves["scalar"]))), 1e-30)
        assert float(np.max(np.abs(waves["banked"] - waves["scalar"]))) / scale <= 1e-12
        # identical solver work: one symbolic analysis, one factorization
        for key in ("factorizations", "symbolic_factorizations",
                    "sparse_factorizations", "cached_solves"):
            assert stats["banked"][key] == stats["scalar"][key], key


class TestWaveformProperties:
    @given(
        n=st.integers(min_value=3, max_value=200),
        factor=st.integers(min_value=1, max_value=6),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40)
    def test_resample_preserves_range(self, n, factor, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=n)
        out = resample_waveform(v, 1.0, 1.0 / factor)
        assert out.min() >= v.min() - 1e-12
        assert out.max() <= v.max() + 1e-12

    @given(
        pattern=st.text(alphabet="01", min_size=1, max_size=8),
        bit_time=st.floats(min_value=1e-10, max_value=1e-8),
    )
    @settings(max_examples=40)
    def test_bit_pattern_stays_within_levels(self, pattern, bit_time):
        wave = BitPattern(pattern=pattern, bit_time=bit_time, low=0.0, high=1.8, edge_time=bit_time / 10)
        t = np.linspace(0, wave.duration * 1.2, 200)
        out = wave(t)
        assert np.all(out >= -1e-12)
        assert np.all(out <= 1.8 + 1e-12)

    @given(
        pattern=st.text(alphabet="01", min_size=1, max_size=10),
        bit_time=st.floats(min_value=1e-10, max_value=4e-9),
        edge=st.one_of(
            st.sampled_from([0.0, 1.0]), st.floats(min_value=1e-6, max_value=1.0)
        ),
        low=st.sampled_from([0.0, -0.0, 0.1, -0.2]),
        vdd=st.floats(min_value=0.5, max_value=3.3),
        strength=st.floats(min_value=0.8, max_value=1.2),
        per_bit=st.integers(min_value=2, max_value=200),
        skew=st.sampled_from([1.0, 0.7317, 1.2913]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_pattern_array_branch_matches_scalar_on_step_grid(
        self, pattern, bit_time, edge, low, vdd, strength, per_bit, skew
    ):
        """The precomputed sweep stimulus equals per-step evaluation bit for bit.

        Lane sets evaluate a source's ``BitPattern`` once on the whole
        ``dt * arange`` grid; the solver adds each value into a zeroed RHS
        entry, hence the ``0.0 +``.
        """
        wave = BitPattern(pattern=pattern, bit_time=bit_time, low=low,
                          high=vdd * strength, edge_time=edge * bit_time)
        dt = bit_time / per_bit * skew
        times = dt * np.arange(int(len(pattern) * per_bit * 1.1) + 2)
        vectorised = 0.0 + wave(times)
        stepped = np.array([0.0 + wave(float(t)) for t in times])
        assert vectorised.tobytes() == stepped.tobytes()

    @given(
        t_eval=st.floats(min_value=-1e-9, max_value=6e-9),
        rise=st.floats(min_value=1e-12, max_value=5e-10),
    )
    def test_trapezoid_bounded(self, t_eval, rise):
        pulse = TrapezoidalPulse(low=0.0, high=1.0, t_start=0.0, rise_time=rise, width=1e-9, fall_time=rise)
        val = float(pulse(t_eval))
        assert -1e-12 <= val <= 1.0 + 1e-12
