"""Mixed BVP: assembly, solver, exact solutions, recovery, corners, wedge."""

import logging
import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import THETA3, l2_relative_error
from hklab import (
    capillary_constant,
    capillary_constant_from_domain,
    capillary_problem,
    corner_exponent,
    exact_cap_solution,
    make_cap,
    mesh_domain,
    mesh_surface,
    solution_from_field,
    solve_mixed_bvp,
    wedge_barrier_check,
    wedge_model_values,
)
from hklab.bvp import (
    _hop_distance,
    gamma_edges,
    gamma_loop_measure,
    gamma_mu_vertical_integral,
    make_problem,
)
from hklab.errors import HkLabError, SolverError
from hklab.fem import (
    _GRAM_SAFE,
    _full_rank_lstsq,
    assemble_boundary_mass,
    assemble_stiffness,
    cell_hessians_of,
    load_facets,
    load_volume,
    p1_gradients,
    pcg,
    recover_nodal_gradients,
)
from hklab.reilly import gamma_t_flux


def test_exact_solution_satisfies_problem_symbolically():
    import sympy as sp

    x, y, z = sp.symbols("x y z")
    theta = sp.pi / 3
    x0 = sp.Matrix([0, 0, -sp.cos(theta)])
    p = sp.Matrix([x, y, z])
    f = ((p - x0).dot(p - x0) - 1) / 6
    assert sp.simplify(sp.diff(f, x, 2) + sp.diff(f, y, 2) + sp.diff(f, z, 2) - 1) == 0
    # f vanishes on the sphere |p - x0| = 1
    on_sigma = f.subs(
        z, -sp.cos(theta) + sp.sqrt(1 - x**2 - y**2)
    )
    assert sp.simplify(on_sigma) == 0
    # downward normal derivative on the plane z = 0 is the capillary constant
    f_n = -sp.diff(f, z)
    assert sp.simplify(f_n.subs(z, 0) + sp.cos(theta) / 3) == 0


def test_exact_solution_values(hs_cap2):
    ex = exact_cap_solution(hs_cap2)
    assert abs(ex(np.zeros((1, 3)))[0] - (-1.0 / 8.0)) < 1e-14
    assert abs(ex.neumann_constant - (-0.5 / 3.0)) < 1e-14
    assert abs(ex.sigma_normal_derivative - 1.0 / 3.0) < 1e-14
    p = np.array([[math.sin(THETA3), 0.0, math.cos(THETA3) - 0.5]])
    assert abs(ex(p)[0]) < 1e-14  # Dirichlet condition on Sigma


def test_capillary_constant_closed_forms():
    c2 = capillary_constant("half-space", THETA3, 2, area_T=3 * math.pi / 4,
                            measure_gamma=math.pi * math.sqrt(3))
    assert abs(c2 - (-1.0 / 6.0)) < 1e-14
    c1 = capillary_constant("half-space", THETA3, 1, area_T=math.sqrt(3), measure_gamma=2.0)
    assert abs(c1 - (-1.0 / 4.0)) < 1e-14
    c_orth = capillary_constant("half-space", math.pi / 2, 2, area_T=1.0, measure_gamma=1.0)
    assert c_orth == 0.0


def test_mesh_measured_constant(hs_domain1, hb_cap1):
    assert abs(capillary_constant_from_domain(hs_domain1) + 0.25) < 1e-12
    domb = mesh_domain(mesh_surface(hb_cap1, 64), None, 64, grading=0.0)
    exact = -0.5 * math.cos(THETA3) / 2.0
    assert abs(capillary_constant_from_domain(domb) - exact) < 2e-3


def test_fem_matches_exact_solution(hs_cap1, hs_domain1, hs_solution1):
    ex = exact_cap_solution(hs_cap1)
    err = l2_relative_error(hs_domain1, hs_solution1.f, ex(hs_domain1.vertices))
    assert err <= 1e-2
    assert hs_solution1.residual_norm <= 1e-9


def test_l2_convergence_order(hs_cap1):
    ex = exact_cap_solution(hs_cap1)
    errs = []
    nvs = []
    for res in (40, 80, 160):
        surf = mesh_surface(hs_cap1, res)
        dom = mesh_domain(surf, None, res, grading=0.0)
        sol = solve_mixed_bvp(capillary_problem(dom))
        errs.append(l2_relative_error(dom, sol.f, ex(dom.vertices)))
        nvs.append(dom.num_vertices)
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert nvs[-1] > 4000
    assert errs[-1] <= 1e-2
    for order in orders:
        assert 1.7 <= order <= 2.3


def test_homogeneous_problem_is_trivial(hs_domain1):
    problem = make_problem(hs_domain1, rhs=0.0, flux=0.0, gamma=0)
    sol = solve_mixed_bvp(problem)
    assert np.max(np.abs(sol.f)) < 1e-12


def test_robin_trace_residual(hb_cap1):
    surf = mesh_surface(hb_cap1, 64)
    dom = mesh_domain(surf, None, 64, grading=0.0)
    problem = capillary_problem(dom)
    assert problem.robin_gamma == 1
    sol = solve_mixed_bvp(problem)
    mids = dom.vertices[dom.t_facets].mean(axis=1)
    nrm = mids / np.linalg.norm(mids, axis=1, keepdims=True)
    f_n = np.einsum("fd,fd->f", sol.nodal_gradients[dom.t_facets].mean(axis=1), nrm)
    f_mid = sol.f[dom.t_facets].mean(axis=1)
    resid = np.abs(f_n - f_mid - problem.flux_constant)
    away = dom.d_gamma[dom.t_facets].min(axis=1) > 0.1
    assert np.max(resid[away]) <= 5e-2


def test_max_principle_surrogate(hs_solution1, hb_cap1):
    assert float(hs_solution1.f.max()) <= 1e-12
    domb = mesh_domain(mesh_surface(hb_cap1, 48), None, 48, grading=0.0)
    solb = solve_mixed_bvp(capillary_problem(domb))
    assert float(solb.f.max()) <= 1e-12


def test_assembly_symmetry(hs_domain1):
    grads, vols, good = p1_gradients(hs_domain1.vertices, hs_domain1.cells)
    stiff = assemble_stiffness(grads, vols, hs_domain1.cells, hs_domain1.num_vertices)
    asym = np.abs(stiff - stiff.T)
    assert asym.max() <= 1e-13 * np.abs(stiff).max()
    t_areas = hs_domain1.facet_measures(hs_domain1.t_facets)
    mass = assemble_boundary_mass(hs_domain1.t_facets, t_areas, hs_domain1.num_vertices)
    masym = np.abs(mass - mass.T)
    assert masym.max() <= 1e-13 * max(np.abs(mass).max(), 1e-300)


def test_robin_gamma_zero_reduces_to_neumann(hb_cap1):
    # gamma = 0 must reproduce the pure-Neumann assembly bit for bit
    dom = mesh_domain(mesh_surface(hb_cap1, 32), None, 32, grading=0.0)
    c = capillary_constant_from_domain(dom)
    problem = make_problem(dom, rhs=1.0, flux=c, gamma=0)
    sol = solve_mixed_bvp(problem, tol=1e-11)

    grads, vols, good = p1_gradients(dom.vertices, dom.cells)
    nv = dom.num_vertices
    stiff = assemble_stiffness(grads, vols, dom.cells, nv)
    t_areas = dom.facet_measures(dom.t_facets)
    b = load_facets(dom.t_facets, t_areas, np.full(len(dom.t_facets), c), nv)
    b -= load_volume(dom.cells, vols, np.ones(nv), nv)
    fixed = np.zeros(nv, dtype=bool)
    fixed[np.unique(dom.sigma_facets)] = True
    free = ~fixed
    x, _, _ = pcg(stiff[free][:, free].tocsr(), b[free], 1e-11, 20000)
    manual = np.zeros(nv)
    manual[free] = x
    assert np.array_equal(sol.f, manual)


def test_solver_failure_modes(hs_domain1):
    problem = capillary_problem(hs_domain1)
    with pytest.raises(SolverError):
        solve_mixed_bvp(problem, max_iter=2)
    stripped = replace(hs_domain1, sigma_facets=np.empty((0, 2), dtype=np.int64))
    with pytest.raises(HkLabError):
        capillary_problem(stripped)


def test_recovery_exact_for_quadratics(hs_domain1):
    rng = np.random.default_rng(5)
    a = rng.standard_normal()
    b = rng.standard_normal(2)
    m = rng.standard_normal((2, 2))
    m = 0.5 * (m + m.T)

    def field(pts):
        return a + pts @ b + 0.5 * np.einsum("ij,jk,ik->i", pts, m, pts)

    problem = make_problem(hs_domain1, rhs=float(np.trace(m)), flux=0.0, gamma=0)
    sol = solution_from_field(problem, field)
    grad_exact = hs_domain1.vertices @ m + b
    assert np.max(np.linalg.norm(sol.nodal_gradients - grad_exact, axis=1)) < 1e-9
    assert np.max(np.abs(sol.cell_hessians - m)) < 1e-8


def test_recovery_exact_for_quadratics_3d(hs_cap2):
    dom = mesh_domain(mesh_surface(hs_cap2, 8), None, 8, grading=0.0)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(3)
    m = rng.standard_normal((3, 3))
    m = 0.5 * (m + m.T)

    def field(pts):
        return 0.3 + pts @ b + 0.5 * np.einsum("ij,jk,ik->i", pts, m, pts)

    problem = make_problem(dom, rhs=float(np.trace(m)), flux=0.0, gamma=0)
    sol = solution_from_field(problem, field)
    grad_exact = dom.vertices @ m + b
    assert np.max(np.linalg.norm(sol.nodal_gradients - grad_exact, axis=1)) < 1e-9
    assert np.max(np.abs(sol.cell_hessians - m)) < 1e-8


# The per-vertex patch recovery that the batched recover_nodal_gradients
# replaced, kept as the reference it is compared against.


def _oracle_adjacency(cells, nv):
    adj = [set() for _ in range(nv)]
    m = cells.shape[1]
    for cell in cells:
        for a in range(m):
            for b in range(a + 1, m):
                adj[cell[a]].add(int(cell[b]))
                adj[cell[b]].add(int(cell[a]))
    return adj


def _oracle_design(offsets):
    m, d = offsets.shape
    cols = [np.ones(m)]
    cols.extend(offsets[:, i] for i in range(d))
    for i in range(d):
        for j in range(i, d):
            cols.append(offsets[:, i] * offsets[:, j])
    return np.column_stack(cols)


def _oracle_recovery(vertices, cells, f, good):
    """Per-vertex recovery; returns the nodal gradients and the fallback count."""
    nv, d = vertices.shape
    adj = _oracle_adjacency(cells[good] if not np.all(good) else cells, nv)
    n_param = 1 + d + d * (d + 1) // 2
    nodal = np.zeros((nv, d))
    fallback = 0
    for v in range(nv):
        patch = set(adj[v])
        patch.add(v)
        last = None
        for _hop in range(2, 5):
            grown = set(patch)
            for u in patch:
                grown.update(adj[u])
            patch = grown
            if len(patch) <= n_param and _hop < 4:
                continue
            ids = np.fromiter(sorted(patch), dtype=np.int64)
            offsets = vertices[ids] - vertices[v]
            cov = offsets.T @ offsets / len(ids)
            evals, evecs = np.linalg.eigh(cov)
            if evals[-1] <= 0:
                continue
            evals = np.maximum(evals, 1e-12 * evals[-1])
            whitener = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T
            xi = offsets @ whitener
            coef, _, rank, _ = np.linalg.lstsq(_oracle_design(xi), f[ids], rcond=1e-8)
            last = (whitener, xi, ids)
            if rank == n_param:
                nodal[v] = whitener @ coef[1 : 1 + d]
                break
        else:
            if last is None:
                continue
            whitener, xi, ids = last
            design = np.column_stack([np.ones(len(ids)), xi])
            coef, *_ = np.linalg.lstsq(design, f[ids], rcond=None)
            nodal[v] = whitener @ coef[1 : 1 + d]
            fallback += 1
    return nodal, fallback


@pytest.fixture(scope="module")
def hb_domain1_graded(hb_cap1):
    return mesh_domain(mesh_surface(hb_cap1, 32), None, 32, grading=0.5)


@pytest.fixture(scope="module")
def hs_domain2(hs_cap2):
    return mesh_domain(mesh_surface(hs_cap2, 12), None, 12, grading=0.0)


@pytest.fixture(scope="module")
def hb_domain2_res8(hb_cap2):
    return mesh_domain(mesh_surface(hb_cap2, 8), None, 8, grading=0.0)


def _jittered_grid(n, seed):
    """A jittered n x n square grid, each square cut along the same diagonal.

    The two corners off that diagonal have 2-hop patches of exactly six
    vertices, so the rule that grows such patches before fitting is exercised.
    """
    rng = np.random.default_rng(seed)
    ij = np.stack(np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij"), axis=-1)
    vertices = ij.reshape(-1, 2) + 0.2 * rng.uniform(-1.0, 1.0, ((n + 1) ** 2, 2))
    idx = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
    a, b = idx[:-1, :-1].ravel(), idx[1:, :-1].ravel()
    c, d = idx[:-1, 1:].ravel(), idx[1:, 1:].ravel()
    cells = np.concatenate([np.stack([a, b, d], 1), np.stack([a, d, c], 1)])
    return vertices, cells


@pytest.mark.parametrize("mesh", ["hs_domain2", "hb_domain1_graded", "jittered_grid",
                                  "hb_domain2_res8"])
def test_batched_recovery_matches_per_vertex_oracle(mesh, request):
    if mesh == "jittered_grid":
        vertices, cells = _jittered_grid(4, seed=1)
    else:
        dom = request.getfixturevalue(mesh)
        vertices, cells = dom.vertices, dom.cells
    _, _, good = p1_gradients(vertices, cells)
    rng = np.random.default_rng(3)
    f = np.sin(vertices @ rng.standard_normal(vertices.shape[1])) + np.sum(vertices**2, axis=1)
    batched = recover_nodal_gradients(vertices, cells, f, good)
    reference, _ = _oracle_recovery(vertices, cells, f, good)
    assert batched.shape == vertices.shape
    assert np.max(np.abs(batched - reference)) <= 1e-8 * np.max(np.abs(reference))


def test_rank_rule_matches_lstsq():
    # designs whose singular-value ratios fall on both sides of rcond = 1e-8
    rng = np.random.default_rng(11)
    spectra = [np.geomspace(1.0, r, 6) for r in (1.0, 1e-2, 1e-4, 1e-5, 1e-7, 1e-9, 1e-12)]
    spectra.append(np.array([1.0, 0.5, 0.25, 0.1, 0.05, 0.0]))
    designs = []
    for s in spectra:
        u, _ = np.linalg.qr(rng.standard_normal((12, 6)))
        v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        designs.append(u @ np.diag(s) @ v.T)
    designs = np.array(designs)
    values = rng.standard_normal((len(spectra), 12))
    coef, full = _full_rank_lstsq(designs.transpose(0, 2, 1), values)
    for k, design in enumerate(designs):
        ref, _, rank, _ = np.linalg.lstsq(design, values[k], rcond=1e-8)
        assert full[k] == (rank == 6)
        if full[k]:
            assert np.linalg.norm(coef[k] - ref) <= 1e-6 * np.linalg.norm(ref)
    assert list(full) == [True] * 5 + [False] * 3


def _designs(spectra, rng, m=14):
    """Transposed designs (k, p, m) with the given singular values (k, p)."""
    designs = []
    for s in spectra:
        u, _ = np.linalg.qr(rng.standard_normal((m, len(s))))
        v, _ = np.linalg.qr(rng.standard_normal((len(s), len(s))))
        designs.append(u @ np.diag(s) @ v.T)
    return np.array(designs).transpose(0, 2, 1)


def _counting_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_well_conditioned_fits_are_certified_without_svd(monkeypatch):
    rng = np.random.default_rng(12)
    spectra = [np.geomspace(1.0, r, 10) for r in rng.uniform(0.05, 1.0, 40)]
    design_t = _designs(spectra, rng)
    values = rng.standard_normal((len(spectra), design_t.shape[2]))
    calls = _counting_svd(monkeypatch)
    coef, full = _full_rank_lstsq(design_t, values)
    assert calls == [] and full.all()
    for k in range(len(spectra)):
        ref, *_ = np.linalg.lstsq(design_t[k].T, values[k], rcond=1e-8)
        assert np.linalg.norm(coef[k] - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("deficient", [False, True], ids=["full-rank", "rank-deficient"])
def test_mixed_batch_matches_lstsq(deficient, monkeypatch):
    rng = np.random.default_rng(13)
    ratios = (1.0, 0.3, 1e-2, 1e-3, 1e-5, 1e-6) + ((1e-10,) if deficient else ())
    design_t = _designs([np.geomspace(1.0, r, 10) for r in ratios], rng)
    if deficient:
        design_t[3, 9] = design_t[3, 2]  # two equal columns: exactly rank deficient
    values = rng.standard_normal((len(design_t), design_t.shape[2]))
    calls = _counting_svd(monkeypatch)
    coef, full = _full_rank_lstsq(design_t, values)
    for k, design in enumerate(design_t.transpose(0, 2, 1)):
        ref, _, rank, _ = np.linalg.lstsq(design, values[k], rcond=1e-8)
        assert full[k] == (rank == 10)
        if full[k]:
            assert np.linalg.norm(coef[k] - ref) <= 1e-6 * np.linalg.norm(ref)
        else:
            assert not coef[k].any()
    if deficient:
        assert list(full) == [True, True, True, False, True, True, False]
    else:
        # the Cholesky succeeds; only the two fits past the certificate take the SVD
        assert full.all() and calls == [2]


def test_certified_fits_are_beyond_the_safe_ratio(monkeypatch):
    # spectra from 1 down to 1e-6 put fits on both sides of the certificate
    rng = np.random.default_rng(14)
    calls = _counting_svd(monkeypatch)
    certified = 0
    for _ in range(200):
        s = np.sort(10.0 ** rng.uniform(-6.0, 0.0, 10))[::-1]
        design_t = _designs([s / s[0]], rng)
        before = len(calls)
        _full_rank_lstsq(design_t, rng.standard_normal((1, design_t.shape[2])))
        if len(calls) == before:
            certified += 1
            sv = np.linalg.svd(design_t[0], compute_uv=False)
            assert sv[-1] / sv[0] > _GRAM_SAFE
    assert 0 < certified < 200


@pytest.mark.parametrize("mesh, expected", [("hs_domain1", 0), ("hb_domain1_graded", 6)])
def test_recovery_logs_linear_fallbacks(mesh, expected, request, caplog):
    dom = request.getfixturevalue(mesh)
    _, _, good = p1_gradients(dom.vertices, dom.cells)
    f = dom.vertices[:, 0] ** 3
    with caplog.at_level(logging.INFO, logger="hklab.fem"):
        recover_nodal_gradients(dom.vertices, dom.cells, f, good)
    message = f"recovery: {expected} of {dom.num_vertices} vertices fell back to a linear fit"
    assert message in caplog.messages
    assert _oracle_recovery(dom.vertices, dom.cells, f, good)[1] == expected


def _oracle_p1_gradients(vertices, cells):
    """p1_gradients as it was with a zeroed array, a masked inverse and a column loop."""
    d = vertices.shape[1]
    edges = vertices[cells[:, 1:]] - vertices[cells[:, :1]]
    vols = np.linalg.det(edges) / math.factorial(d)
    scale = np.abs(vols).max() if len(vols) else 1.0
    good = np.abs(vols) > 1e-12 * scale
    inv = np.zeros_like(edges)
    inv[good] = np.linalg.inv(edges[good])
    grads = np.zeros((len(cells), d + 1, d))
    for k in range(1, d + 1):
        grads[:, k, :] = inv[:, :, k - 1]
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return grads, vols, good


@pytest.mark.parametrize("degenerate", [False, True], ids=["solid", "one-degenerate-cell"])
def test_p1_gradients_match_masked_oracle_bit_for_bit(degenerate, hs_domain2):
    cells = hs_domain2.cells
    if degenerate:  # a cell with a repeated vertex has zero volume
        cells = np.vstack([cells, cells[:1, [0, 0, 1, 2]]])
    got = p1_gradients(hs_domain2.vertices, cells)
    want = _oracle_p1_gradients(hs_domain2.vertices, cells)
    assert got[2].all() != degenerate
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_cell_hessians_match_einsum_oracle(hs_domain2):
    dom = hs_domain2
    grads, _, good = p1_gradients(dom.vertices, dom.cells)
    rng = np.random.default_rng(4)
    nodal = rng.standard_normal(dom.vertices.shape)
    got = cell_hessians_of(nodal, grads, dom.cells, good)
    want = np.einsum("cma,cmb->cab", nodal[dom.cells], grads)
    want = 0.5 * (want + want.transpose(0, 2, 1))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_hop_distance_matches_breadth_first_search(hb_domain1_graded):
    dom = hb_domain1_graded
    neighbours = _oracle_adjacency(dom.cells, dom.num_vertices)
    seeds = dom.gamma_vertices
    expected = np.full(dom.num_vertices, 4, dtype=np.int64)
    expected[seeds] = 0
    queue = deque(int(s) for s in seeds)
    while queue:
        v = queue.popleft()
        for w in neighbours[v]:
            if expected[v] + 1 < expected[w]:
                expected[w] = expected[v] + 1
                queue.append(w)
    assert np.array_equal(_hop_distance(dom, seeds, 3), expected)


def test_cauchy_schwarz_per_cell(hs_solution1):
    tr = hs_solution1.laplacian()
    h2 = np.einsum("cab,cab->c", hs_solution1.cell_hessians, hs_solution1.cell_hessians)
    d = hs_solution1.domain.dim
    assert np.all(tr**2 <= d * h2 + 1e-12)


def test_galerkin_energy_recorded(hs_solution1):
    assert np.isfinite(hs_solution1.energy)
    assert hs_solution1.iterations > 0


# ---------------------------------------------------------------------------
# corner fits and the wedge barrier
# ---------------------------------------------------------------------------


def test_wedge_model_lambda_fits():
    for theta, target in ((math.pi / 4, 2.0), (math.pi / 3, 1.5)):
        cap = make_cap("half-space", theta, 1.0, 1)
        surf = mesh_surface(cap, 96)
        dom = mesh_domain(surf, None, 96, grading=0.5)
        problem = capillary_problem(dom)
        sol = solution_from_field(problem, wedge_model_values(dom))
        fit = corner_exponent(sol)
        assert abs(fit.lambda_hat - target) <= 0.1
        assert fit.r2_growth >= 0.9
        assert abs(fit.wedge_reference - target) < 1e-12


def test_smooth_solution_has_bounded_hessian():
    cap = make_cap("half-space", math.pi / 2, 1.0, 1)
    surf = mesh_surface(cap, 96)
    dom = mesh_domain(surf, None, 96, grading=0.5)
    sol = solve_mixed_bvp(capillary_problem(dom))
    fit = corner_exponent(sol)
    assert abs(fit.beta_hat) <= 0.1


def test_generic_corner_fit_window(hs_cap1):
    # a genuinely non-spherical domain: its solution carries the r^lambda mode
    from hklab import make_axisymmetric, perturb_profile, profile_from_cap

    prof = make_axisymmetric(
        perturb_profile(profile_from_cap(hs_cap1, 513), 0.05), THETA3, "half-space"
    )
    surf = mesh_surface(prof, 160)
    dom = mesh_domain(surf, None, 160, grading=0.5)
    sol = solve_mixed_bvp(capillary_problem(dom))
    fit = corner_exponent(sol)
    assert -0.1 < fit.beta_hat < 1.0  # within fit uncertainty of the (0, 1) window
    assert fit.lambda_hat >= 0.95  # bounded-gradient solutions grow at least linearly
    assert fit.window[1] <= 0.2 * 2.1  # window cap at a fifth of the diameter


def test_wedge_barrier_examples():
    rec = wedge_barrier_check(1.4, THETA3)
    assert rec.harmonic_residual <= 1e-12
    assert abs(rec.min_profile - math.cos(1.4 * THETA3)) < 1e-12
    assert rec.min_profile > 0 and rec.positivity_ok
    assert rec.neumann_value == 0.0

    linear = wedge_barrier_check(1.0, 1.3)
    assert linear.harmonic_residual <= 1e-12

    boundary = wedge_barrier_check(1.5, THETA3)
    assert abs(boundary.min_profile) < 1e-12
    assert not boundary.positivity_ok

    with pytest.raises(HkLabError):
        wedge_barrier_check(2.0, THETA3)


def test_wedge_barrier_finite_difference_oracle():
    # independent check: the cartesian five-point laplacian of r^lam cos(lam eta)
    lam, theta = 1.4, THETA3
    h = 1e-5

    def psi(x, y):
        r = math.hypot(x, y)
        eta = math.atan2(y, x)
        return r**lam * math.cos(lam * eta)

    for (x, y) in ((0.5, 0.2), (0.8, 0.3), (0.4, 0.1)):
        lap = (
            psi(x + h, y) + psi(x - h, y) + psi(x, y + h) + psi(x, y - h) - 4 * psi(x, y)
        ) / h**2
        assert abs(lap) < 1e-4


def test_pcg_rejects_zero_iterations(hs_domain1):
    with pytest.raises(SolverError, match="in 0 iterations"):
        pcg(sp.identity(3, format="csr"), np.ones(3), 1e-10, 0)
    with pytest.raises(SolverError):
        solve_mixed_bvp(capillary_problem(hs_domain1), max_iter=0)


# ---------------------------------------------------------------------------
# the Gamma-edge table against the per-facet loops it replaced
# ---------------------------------------------------------------------------


def _oracle_gamma_mu_vertical_integral(domain):
    gamma = set(int(g) for g in domain.gamma_vertices)
    verts = domain.vertices
    total = 0.0
    if domain.dim == 2:
        for facet in domain.sigma_facets:
            a, b = int(facet[0]), int(facet[1])
            for corner, other in ((a, b), (b, a)):
                if corner in gamma and other not in gamma:
                    mu = verts[corner] - verts[other]
                    mu /= np.linalg.norm(mu)
                    total += float(mu[-1])
        return total
    for facet in domain.sigma_facets:
        ids = [int(v) for v in facet]
        on_gamma = [v in gamma for v in ids]
        if sum(on_gamma) != 2:
            continue
        edge = [v for v, g in zip(ids, on_gamma) if g]
        opp = [v for v, g in zip(ids, on_gamma) if not g][0]
        pa, pb, pc = verts[edge[0]], verts[edge[1]], verts[opp]
        e = pb - pa
        e /= np.linalg.norm(e)
        mid = 0.5 * (pa + pb)
        mu = mid - pc
        mu -= (mu @ e) * e
        mu /= np.linalg.norm(mu)
        total += float(mu[-1]) * float(np.linalg.norm(pb - pa))
    return total


def _oracle_gamma_t_flux(domain, solution, weight):
    gamma = set(int(g) for g in domain.gamma_vertices)
    verts = domain.vertices
    nodal = solution.nodal_gradients
    total = 0.0
    if domain.dim == 2:
        for facet in domain.t_facets:
            a, b = int(facet[0]), int(facet[1])
            for corner, other in ((a, b), (b, a)):
                if corner in gamma and other not in gamma:
                    nubar = verts[corner] - verts[other]
                    nubar /= np.linalg.norm(nubar)
                    w = verts[corner][-1] if weight == "z" else 1.0
                    total += w * float(nodal[corner] @ nubar)
        return total
    for facet in domain.t_facets:
        ids = [int(v) for v in facet]
        on_gamma = [v in gamma for v in ids]
        if sum(on_gamma) != 2:
            continue
        edge = [v for v, g in zip(ids, on_gamma) if g]
        opp = [v for v, g in zip(ids, on_gamma) if not g][0]
        pa, pb = verts[edge[0]], verts[edge[1]]
        e = pb - pa
        elen = float(np.linalg.norm(e))
        e /= elen
        mid = 0.5 * (pa + pb)
        nubar = mid - verts[opp]
        nubar -= (nubar @ e) * e
        nubar /= np.linalg.norm(nubar)
        w = mid[-1] if weight == "z" else 1.0
        g_mid = 0.5 * (nodal[edge[0]] + nodal[edge[1]])
        total += w * float(g_mid @ nubar) * elen
    return total


@pytest.fixture(scope="module")
def hb_domain2(hb_cap2):
    return mesh_domain(mesh_surface(hb_cap2, 12), None, 12, grading=0.0)


GAMMA_DOMAINS = ["hs_domain1", "hb_domain1_graded", "hs_domain2", "hb_domain2"]


@pytest.mark.parametrize("mesh", GAMMA_DOMAINS)
def test_gamma_integrals_match_per_facet_oracle(mesh, request):
    dom = request.getfixturevalue(mesh)
    rng = np.random.default_rng(7)
    f = np.sin(dom.vertices @ rng.standard_normal(dom.dim)) + np.sum(dom.vertices**2, axis=1)
    solution = solution_from_field(make_problem(dom), f)
    pairs = [(gamma_mu_vertical_integral(dom), _oracle_gamma_mu_vertical_integral(dom))]
    for weight in ("1", "z"):
        pairs.append((gamma_t_flux(dom, solution, weight),
                      _oracle_gamma_t_flux(dom, solution, weight)))
    assert pairs[0][1] != 0.0 and pairs[1][1] != 0.0  # the z weight vanishes on a flat T
    for got, want in pairs:
        assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("mesh", GAMMA_DOMAINS)
@pytest.mark.parametrize("patch", ["sigma_facets", "t_facets"])
def test_gamma_edge_table_geometry(mesh, patch, request):
    dom = request.getfixturevalue(mesh)
    facets = getattr(dom, patch)
    ends, conormal, measure = gamma_edges(dom, facets)
    assert ends.shape == (len(conormal), dom.dim - 1)
    assert np.all(np.isin(ends, dom.gamma_vertices))
    if dom.dim == 2:
        assert float(measure.sum()) == gamma_loop_measure(dom)
    else:
        assert abs(measure.sum() - gamma_loop_measure(dom)) <= 1e-12 * gamma_loop_measure(dom)

    on_gamma = np.isin(facets, dom.gamma_vertices)
    hit = facets[on_gamma.sum(axis=1) == dom.dim - 1]
    opposite = dom.vertices[hit[~np.isin(hit, dom.gamma_vertices)]]
    pts = dom.vertices[ends]
    assert np.allclose(np.linalg.norm(conormal, axis=1), 1.0, rtol=0, atol=1e-14)
    # in the facet, perpendicular to the edge, away from the opposite vertex
    assert np.allclose(np.einsum("ij,ij->i", conormal, dom.facet_normals(hit)), 0.0, atol=1e-12)
    edge = pts[:, -1] - pts[:, 0]
    assert np.allclose(np.einsum("ij,ij->i", conormal, edge), 0.0, atol=1e-12)
    assert np.all(np.einsum("ij,ij->i", conormal, pts.mean(axis=1) - opposite) > 0)
