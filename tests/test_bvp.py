"""Mixed BVP: assembly, solver, exact solutions, recovery, corners, wedge."""

import json
import logging
import math
import tracemalloc
from collections import deque
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp

import hklab.bvp
import hklab.fem
from conftest import THETA3, l2_relative_error, run_python
from hklab import (
    capillary_constant,
    capillary_problem,
    corner_exponent,
    exact_cap_solution,
    make_cap,
    mesh_domain,
    mesh_surface,
    solution_from_field,
    solve_mixed_bvp,
    wedge_model_values,
)
from hklab.bvp import (
    COLLAR_LAYERS,
    MixedBvpProblem,
    _hop_distance,
    gamma_edges,
    gamma_mu_vertical_integral,
)
from hklab.errors import DegenerateConfigurationError, HkLabError, SolverError
from hklab.domain import cell_geometry
from hklab.fem import (
    _GRAM_SAFE,
    _certified_cholesky,
    _fit_quadratic_patches,
    _linear_fallback,
    _quadratic_monomials,
    _scaled_offsets,
    _svd_lstsq,
    aggregates,
    assemble_boundary_mass,
    assemble_stiffness,
    cell_hessians_of,
    load_facets,
    load_volume,
    nondegenerate,
    p1_gradients,
    pcg,
    recover_nodal_gradients,
    two_level,
    vertex_adjacency,
)
from hklab.meshio import read_domain_json, write_domain_json
from hklab.reilly import gamma_t_flux, reilly_sides


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


def test_capillary_constant_closed_forms(hs_domain1, hs_domain2):
    # the half-space closed form -n/(n+1) cot(theta) |T|/|Gamma| is -1/4 at
    # n = 1, where T and Gamma are exact, and -1/6 at n = 2
    assert abs(capillary_constant(hs_domain1) + 0.25) < 1e-12
    assert abs(capillary_constant(hs_domain2) + 1.0 / 6.0) < 1e-4
    for n in (1, 2):
        orth = make_cap("half-space", math.pi / 2, 1.0, n)
        assert capillary_constant(mesh_domain(mesh_surface(orth, 8), None, 8)) == 0.0


def test_mesh_measured_constant(hs_domain1, hb_cap1):
    domb = mesh_domain(mesh_surface(hb_cap1, 64), None, 64, grading=0.0)
    exact = -0.5 * math.cos(THETA3) / 2.0
    assert abs(capillary_constant(domb) - exact) < 2e-3
    closed = mesh_domain(mesh_surface(make_cap("closed", None, 1.0, 1), 16), None, 16)
    with pytest.raises(HkLabError, match="closed container"):
        capillary_constant(closed)
    # without Gamma, |Gamma| and the Gamma integral of <mu, E_d> vanish
    for dom in (hs_domain1, domb):
        with pytest.raises(DegenerateConfigurationError):
            capillary_constant(replace(dom, gamma_vertices=dom.gamma_vertices[:0]))


def test_capillary_constant_ignores_the_gamma_vertex_order(hs_domain2, tmp_path):
    # a domain file may list Gamma in any order: |Gamma| is the sum over the
    # Gamma edges of T, not the length of the polygon through the listed vertices
    path = tmp_path / "dom.json"
    write_domain_json(hs_domain2, path)
    data = json.loads(path.read_text(encoding="utf-8"))
    gamma = data["metadata"]["gamma_vertices"]
    data["metadata"]["gamma_vertices"] = np.random.default_rng(3).permutation(gamma).tolist()
    path.write_text(json.dumps(data), encoding="utf-8")
    c = capillary_constant(hs_domain2)
    assert abs(capillary_constant(read_domain_json(path)) - c) <= 1e-12 * abs(c)


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
    problem = MixedBvpProblem(hs_domain1, np.zeros(hs_domain1.num_vertices), 0.0)
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
    stiff = assemble_stiffness(hs_domain1.vertices, hs_domain1.cell_volumes, hs_domain1.cells,
                               hs_domain1.graph)
    asym = np.abs(stiff - stiff.T)
    assert asym.max() <= 1e-13 * np.abs(stiff).max()
    t_areas = hs_domain1.facet_measures(hs_domain1.t_facets)
    mass = assemble_boundary_mass(hs_domain1.t_facets, t_areas, hs_domain1.graph)
    masym = np.abs(mass - mass.T)
    assert masym.max() <= 1e-13 * max(np.abs(mass).max(), 1e-300)


# The COO assembly that scattering into the mesh's vertex graph replaced: the
# local entries become (row, col, value) triplets, and tocsr sums duplicates.
def _coo_stiffness(grads, vols, cells, nv):
    nc, m, _ = grads.shape
    local = vols[:, None, None] * np.matmul(grads, grads.transpose(0, 2, 1))
    ii = np.repeat(cells, m, axis=1).reshape(nc, m, m)
    jj = np.tile(cells[:, None, :], (1, m, 1))
    return sp.coo_matrix((local.ravel(), (ii.ravel(), jj.ravel())), shape=(nv, nv)).tocsr()


def _coo_boundary_mass(facets, areas, nv):
    if len(facets) == 0:
        return sp.csr_matrix((nv, nv))
    m = facets.shape[1]
    base = (np.ones((m, m)) + np.eye(m)) / (m * (m + 1))
    local = areas[:, None, None] * base[None, :, :]
    ii = np.repeat(facets, m, axis=1).reshape(len(facets), m, m)
    jj = np.tile(facets[:, None, :], (1, m, 1))
    return sp.coo_matrix((local.ravel(), (ii.ravel(), jj.ravel())), shape=(nv, nv)).tocsr()


@pytest.mark.parametrize("mesh", ["hb_domain1_graded", "hb_domain2_res8"])
def test_scatter_matches_coo_assembly(mesh, request):
    dom = request.getfixturevalue(mesh)
    nv, graph = dom.num_vertices, dom.graph
    grads = p1_gradients(dom.vertices, dom.cells)
    got = assemble_stiffness(dom.vertices, dom.cell_volumes, dom.cells, graph)
    want = _coo_stiffness(grads, dom.cell_volumes, dom.cells, nv)
    want.sort_indices()
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    assert np.max(np.abs(got.data - want.data)) <= 1e-15 * np.max(np.abs(want.data))
    # the mass matrix stores the whole graph; off the T facets it holds zeros
    areas = dom.facet_measures(dom.t_facets)
    mass = assemble_boundary_mass(dom.t_facets, areas, graph)
    assert np.array_equal(mass.indptr, graph.indptr) and np.array_equal(mass.indices, graph.indices)
    oracle = _coo_boundary_mass(dom.t_facets, areas, nv)
    assert abs(mass - oracle).max() <= 1e-15 * abs(oracle).max()


def test_scatter_of_no_facets_is_zero_on_the_graph(hb_domain1_graded):
    graph = hb_domain1_graded.graph
    mass = assemble_boundary_mass(np.empty((0, 2), dtype=np.int64), np.empty(0), graph)
    assert np.array_equal(mass.indptr, graph.indptr) and np.array_equal(mass.indices, graph.indices)
    assert mass.data.shape == (graph.nnz,) and not mass.data.any()


def test_scatter_rejects_a_facet_off_the_graph(hb_domain1_graded):
    # a T facet whose two vertices share no cell: read_domain_json refuses
    # one, but a mesh edited in memory can still hand one to a solve
    dom = hb_domain1_graded
    a = int(dom.t_facets[0, 0])
    far = int(np.argmax(np.linalg.norm(dom.vertices - dom.vertices[a], axis=1)))
    assert dom.graph[a, far] == 0
    t_facets = dom.t_facets.copy()
    t_facets[0, 1] = far
    areas = dom.facet_measures(t_facets)
    with pytest.raises(HkLabError, match="share no cell"):
        assemble_boundary_mass(t_facets, areas, dom.graph)
    with pytest.raises(HkLabError, match="share no cell"):
        solve_mixed_bvp(capillary_problem(replace(dom, t_facets=t_facets)))


def test_half_ball_solve_is_the_robin_assembly(hb_cap1):
    # the half-ball's Robin coefficient 1: stiffness minus the T boundary mass, bit for bit
    dom = mesh_domain(mesh_surface(hb_cap1, 32), None, 32, grading=0.0)
    problem = capillary_problem(dom)
    sol = solve_mixed_bvp(problem, tol=1e-11)

    vols = dom.cell_volumes
    nv = dom.num_vertices
    t_areas = dom.facet_measures(dom.t_facets)
    robin = assemble_stiffness(dom.vertices, vols, dom.cells, dom.graph)
    robin = robin - assemble_boundary_mass(dom.t_facets, t_areas, dom.graph)
    b = load_facets(dom.t_facets, t_areas, np.full(len(dom.t_facets), problem.flux_constant), nv)
    b -= load_volume(dom.cells, vols, np.ones(nv), nv)
    fixed = np.zeros(nv, dtype=bool)
    fixed[np.unique(dom.sigma_facets)] = True
    free = ~fixed
    a_ff = robin[free][:, free].tocsr()
    x, _, _ = pcg(a_ff, b[free], 1e-11, 20000, two_level(a_ff))
    manual = np.zeros(nv)
    manual[free] = x
    assert np.array_equal(sol.f, manual)


def test_robin_coefficient_is_the_containers(hs_domain1, hb_domain1_graded):
    closed = mesh_domain(mesh_surface(make_cap("closed", None, 1.0, 1), 16), None, 16)
    for dom, gamma in ((hs_domain1, 0), (hb_domain1_graded, 1), (closed, 0)):
        problem = MixedBvpProblem(dom, np.ones(dom.num_vertices), 0.0)
        assert problem.robin_gamma == gamma and type(problem.robin_gamma) is int
        assert capillary_problem(dom).robin_gamma == gamma
    assert [f.name for f in fields(MixedBvpProblem)] == ["domain", "rhs", "flux_constant"]


def _add_at_loads(cells, vols, rhs, facets, areas, values, nv):
    # the np.add.at loops the load vectors ran before they became one bincount
    volume, flux = np.zeros(nv), np.zeros(nv)
    m, h = cells.shape[1], rhs[cells]
    for k in range(m):
        np.add.at(volume, cells[:, k], vols * (h.sum(axis=1) + h[:, k]) / (m * (m + 1)))
    for k in range(facets.shape[1]):
        np.add.at(flux, facets[:, k], areas * values / facets.shape[1])
    return volume, flux


@pytest.mark.parametrize("mesh", ["hs_domain1", "hs_domain2"])
def test_load_vectors_match_add_at_oracle(mesh, request):
    dom = request.getfixturevalue(mesh)
    rng = np.random.default_rng(3)
    nv, t_areas = dom.num_vertices, dom.facet_measures(dom.t_facets)
    rhs, values = rng.standard_normal(nv), rng.standard_normal(len(dom.t_facets))
    want = _add_at_loads(dom.cells, dom.cell_volumes, rhs, dom.t_facets, t_areas, values, nv)
    assert np.array_equal(load_volume(dom.cells, dom.cell_volumes, rhs, nv), want[0])
    assert np.array_equal(load_facets(dom.t_facets, t_areas, values, nv), want[1])
    none = load_facets(dom.t_facets[:0], t_areas[:0], values[:0], nv)
    assert none.dtype == float and not none.any()


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

    problem = MixedBvpProblem(hs_domain1, np.full(hs_domain1.num_vertices, np.trace(m)), 0.0)
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

    problem = MixedBvpProblem(dom, np.full(dom.num_vertices, np.trace(m)), 0.0)
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
    good = nondegenerate(cell_geometry(vertices, cells)[0])
    rng = np.random.default_rng(3)
    f = np.sin(vertices @ rng.standard_normal(vertices.shape[1])) + np.sum(vertices**2, axis=1)
    batched = recover_nodal_gradients(vertices, vertex_adjacency(cells[good], len(vertices)), f)
    reference, _ = _oracle_recovery(vertices, cells, f, good)
    assert batched.shape == vertices.shape
    assert np.max(np.abs(batched - reference)) <= 1e-8 * np.max(np.abs(reference))


def _full_rank_lstsq(design_t, values):
    """The fit rule of recovery on one stack of transposed designs (k, p, m):
    the certified Cholesky of the Gram matrices, the SVD for the rest."""
    gram = np.matmul(design_t, design_t.transpose(0, 2, 1))
    coef, full = _certified_cholesky(gram, np.matmul(design_t, values[:, :, None])[:, :, 0])
    rest = np.flatnonzero(~full)
    if len(rest):
        coef[rest], full[rest] = _svd_lstsq(design_t[rest], values[rest])
    return coef, full


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
    good = nondegenerate(dom.cell_volumes)
    f = dom.vertices[:, 0] ** 3
    with caplog.at_level(logging.INFO, logger="hklab.fem"):
        recover_nodal_gradients(dom.vertices, dom.graph, f)
    nv = f"{dom.num_vertices:,}"
    assert f"recovery: {nv} of {nv} vertices, 0 by SVD, {expected} linear" in caplog.messages
    assert _oracle_recovery(dom.vertices, dom.cells, f, good)[1] == expected


# The batched fit that the stacked one replaced: the patches of one size are
# fitted together, by one LAPACK Cholesky of their Gram matrices, and the
# whole batch goes to the SVD when that Cholesky fails.  It is kept as the
# reference the stacked fit is compared against.


def _batched_lstsq(design_t, values):
    k, p, _ = design_t.shape
    gram = np.matmul(design_t, design_t.transpose(0, 2, 1))
    rhs = np.matmul(design_t, values[:, :, None])
    coef = np.zeros((k, p))
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        full = np.zeros(k, dtype=bool)
    else:
        linv = np.zeros_like(gram)
        for i in range(p):
            row = -np.matmul(chol[:, i : i + 1, :i], linv[:, :i, : i + 1])[:, 0]
            row[:, i] += 1.0
            linv[:, i, : i + 1] = row / chol[:, i, i : i + 1]
        bound = np.sqrt(np.sum(gram**2, axis=(1, 2))) * np.sum(linv**2, axis=(1, 2))
        full = bound < _GRAM_SAFE**-2
        lf = linv[full]
        coef[full] = np.matmul(lf.transpose(0, 2, 1), np.matmul(lf, rhs[full]))[:, :, 0]
    rest = np.flatnonzero(~full)
    if len(rest):
        u, s, vt = np.linalg.svd(design_t[rest].transpose(0, 2, 1), full_matrices=False)
        keep = s[:, -1] > 1e-8 * s[:, 0]
        ut_f = np.einsum("kmp,km->kp", u[keep], values[rest[keep]]) / s[keep]
        coef[rest[keep]] = np.einsum("kqp,kq->kp", vt[keep], ut_f)
        full[rest[keep]] = True
    return coef, full


def _batched_fit(coords, f, centers, ids):
    """Scaled quadratic fits of k patches of m vertices by _batched_lstsq."""
    d = len(coords)
    xi, inv_scale = _scaled_offsets(coords, centers, ids)
    rows = np.flatnonzero(inv_scale)
    coef, full = _batched_lstsq(_quadratic_monomials(xi.take(rows, axis=1)), f[ids[rows]])
    rows = rows[full]
    grads = np.zeros((len(centers), d))
    grads[rows] = coef[full, 1 : 1 + d] * inv_scale[rows, None]
    fitted = np.zeros(len(centers), dtype=bool)
    fitted[rows] = True
    return grads, fitted


def _batched_recovery(vertices, cells, f, good, fit=_batched_fit):
    """recover_nodal_gradients with `fit` applied to each batch of equal-size patches."""
    nv, d = vertices.shape
    coords = np.ascontiguousarray(vertices.T)
    adj = vertex_adjacency(cells[good] if not np.all(good) else cells, nv)
    n_param = 1 + d + d * (d + 1) // 2
    nodal = np.zeros((nv, d))
    for start in range(0, nv, 2048):
        rows = np.arange(start, min(start + 2048, nv))
        patches = adj[rows] @ adj
        for hop in range(2, 5):
            if hop > 2:
                patches = patches @ adj
            patches.sort_indices()
            sizes = np.diff(patches.indptr)
            tried = sizes > n_param if hop < 4 else sizes >= n_param
            done = np.zeros(len(rows), dtype=bool)
            for m in np.unique(sizes[tried]):
                sel = np.flatnonzero(tried & (sizes == m))
                ids = patches.indices[patches.indptr[sel][:, None] + np.arange(m)]
                grads, ok = fit(coords, f, rows[sel], ids)
                nodal[rows[sel[ok]]] = grads[ok]
                done[sel[ok]] = True
            rows = rows[~done]
            if len(rows) == 0:
                break
            patches = patches[~done]
        else:
            for v, lo, hi in zip(rows, patches.indptr[:-1], patches.indptr[1:]):
                grad = _linear_fallback(coords, f, v, patches.indices[lo:hi]) if lo < hi else None
                if grad is not None:
                    nodal[v] = grad
    return nodal


# Vertices next to the Gamma corner of the graded half-ball n = 1 mesh at 32.
# Their 2-hop designs have s_min / s_max of 1.1e-3 and 1.7e-3, so the
# certificate hands them to the normal equations (kappa(G) about 1e6), while
# the batched fit solved them by SVD: another patch of their batch of nine
# failed its Cholesky.  The two solutions differ by up to 1.8e-10 of max |grad|.
RANK_SENSITIVE = {"hb_domain1_graded": [7, 8]}


def _sensitive_mask(mesh, nv):
    keep = np.ones(nv, dtype=bool)
    keep[RANK_SENSITIVE.get(mesh, [])] = False
    return keep


def _smooth_field(vertices, seed):
    rng = np.random.default_rng(seed)
    return np.sin(vertices @ rng.standard_normal(vertices.shape[1])) + np.sum(vertices**2, axis=1)


@pytest.mark.parametrize("mesh", ["hs_domain2", "hb_domain2_res8", "hb_domain1_graded"])
def test_stacked_recovery_matches_batched_oracle(mesh, request):
    dom = request.getfixturevalue(mesh)
    good = nondegenerate(dom.cell_volumes)
    f = _smooth_field(dom.vertices, 5)
    got = recover_nodal_gradients(dom.vertices, dom.graph, f)
    want = _batched_recovery(dom.vertices, dom.cells, f, good)
    keep = _sensitive_mask(mesh, dom.num_vertices)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)[keep]) <= 1e-10 * scale
    assert np.max(np.abs(got - want)) <= 1e-8 * scale
    # fitting scattered vertices only stacks other fits, with the same bits
    at = np.unique(dom.cells[::7])
    part = recover_nodal_gradients(dom.vertices, dom.graph, f, at=at)
    assert part.tobytes() == got[at].tobytes()


def _whitened_fit(coords, f, centers, ids):
    """The quadratic patch fit with offsets whitened by the patch covariance
    (an eigh whitener), which the RMS-radius scale replaced."""
    d = len(coords)
    offsets = coords.take(ids, axis=1) - coords.take(centers, axis=1)[:, :, None]
    offsets = offsets.transpose(1, 2, 0)  # (k, m, d)
    cov = np.matmul(offsets.transpose(0, 2, 1), offsets) / ids.shape[1]
    evals, evecs = np.linalg.eigh(cov)
    ok = evals[:, -1] > 0
    evals = np.maximum(evals[ok], 1e-12 * evals[ok, -1:])
    whitener = np.zeros_like(cov)
    whitener[ok] = np.matmul(evecs[ok] / np.sqrt(evals)[:, None, :],
                             evecs[ok].transpose(0, 2, 1))
    rows = np.flatnonzero(ok)
    xi = np.matmul(offsets, whitener)[rows]
    monomials = [np.ones(xi.shape[:-1])]
    monomials.extend(xi[..., i] for i in range(d))
    monomials.extend(xi[..., i] * xi[..., j] for i in range(d) for j in range(i, d))
    coef, full = _batched_lstsq(np.stack(monomials, axis=1), f[ids[rows]])
    rows = rows[full]
    grads = np.zeros((len(centers), d))
    grads[rows] = np.einsum("kab,kb->ka", whitener[rows], coef[full, 1 : 1 + d])
    fitted = np.zeros(len(centers), dtype=bool)
    fitted[rows] = True
    return grads, fitted


@pytest.mark.parametrize("mesh", ["hb_domain1_graded", "hs_domain2", "hb_domain2_res8"])
def test_scaled_recovery_matches_whitened_oracle(mesh, request, monkeypatch):
    # the fit does not depend on linear changes of coordinates, so scaling the
    # offsets instead of whitening them changes only rounding, and in equal
    # batches it leaves the fits that the Cholesky certificate hands on to
    # the SVD as they were
    dom = request.getfixturevalue(mesh)
    good = nondegenerate(dom.cell_volumes)
    f = _smooth_field(dom.vertices, 5)
    calls = _counting_svd(monkeypatch)
    got = _batched_recovery(dom.vertices, dom.cells, f, good)
    scaled_svd_fits = sum(calls)
    calls.clear()
    want = _batched_recovery(dom.vertices, dom.cells, f, good, fit=_whitened_fit)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    assert scaled_svd_fits == sum(calls)


def test_only_the_collinear_patch_reaches_svd(monkeypatch):
    # two sizes of patches; patch 3 lies on the line y = 0, so its y, xy and
    # y^2 columns vanish and its Gram matrix is singular.  The batched fit
    # sent its whole batch of eight to the SVD; the stacked one sends it alone.
    rng = np.random.default_rng(15)
    coords = rng.uniform(-1.0, 1.0, (2, 8 * 12 + 5 * 9))
    coords[1, 36:48] = 0.0
    f = np.sin(coords[0] + 2.0 * coords[1]) + coords[0] * coords[1]
    ids = [np.arange(96).reshape(8, 12), 96 + np.arange(45).reshape(5, 9)]
    groups = [(i[:, 0], i) for i in ids]
    calls = _counting_svd(monkeypatch)
    grads, full, by_svd = _fit_quadratic_patches(coords, f, groups)
    assert calls == [1] and by_svd == 0
    assert np.flatnonzero(~full).tolist() == [3] and not grads[3].any()
    calls.clear()
    want = np.concatenate([_batched_fit(coords, f, *group)[0] for group in groups])
    assert calls == [8]
    assert np.max(np.abs(grads - want)) <= 1e-10 * np.max(np.abs(want))


def test_solve_recovers_only_when_derivatives_are_read(hs_domain1, monkeypatch):
    fits = []
    original = hklab.bvp.recover_nodal_gradients

    def counting(*args, **kwargs):
        fits.append(kwargs.get("at"))
        return original(*args, **kwargs)

    monkeypatch.setattr(hklab.bvp, "recover_nodal_gradients", counting)
    solution = solve_mixed_bvp(capillary_problem(hs_domain1))
    assert fits == []
    first = reilly_sides(solution)
    assert fits == [None]
    assert reilly_sides(solution) == first
    assert fits == [None]


def _corner_window(dom, fraction=0.2):
    """Cells of the corner fit: off the Gamma collar, within fraction of the diameter."""
    hop = _hop_distance(dom, dom.gamma_vertices, COLLAR_LAYERS)
    centroids = dom.vertices[dom.cells].mean(axis=1)
    gamma_pts = dom.vertices[dom.gamma_vertices]
    d_cell = np.linalg.norm(centroids[:, None] - gamma_pts[None], axis=2).min(axis=1)
    diam = np.linalg.norm(dom.vertices.max(axis=0) - dom.vertices.min(axis=0))
    return (hop[dom.cells].min(axis=1) > COLLAR_LAYERS) & (d_cell <= fraction * diam)


def test_corner_fit_recovers_only_its_window(hb_domain1_graded, monkeypatch, caplog):
    dom = hb_domain1_graded
    fits = []
    original = hklab.bvp.recover_nodal_gradients

    def counting(*args, **kwargs):
        fits.append(kwargs.get("at"))
        return original(*args, **kwargs)

    monkeypatch.setattr(hklab.bvp, "recover_nodal_gradients", counting)
    lazy = solve_mixed_bvp(capillary_problem(dom))
    with caplog.at_level(logging.INFO, logger="hklab.fem"):
        fit = corner_exponent(lazy)
    at = np.unique(dom.cells[_corner_window(dom)])
    assert len(fits) == 1 and np.array_equal(fits[0], at)
    assert len(at) < dom.num_vertices
    assert any(m.startswith(f"recovery: {len(at):,} of {dom.num_vertices:,} vertices, ")
               for m in caplog.messages)
    # the fit of a solution that slices its full Hessians
    full = replace(lazy)
    full.hessians_of = lambda which: full.cell_hessians[which]
    assert corner_exponent(full) == fit  # float fields compared exactly
    assert fits[1:] == [None]


def _lu_p1_gradients(vertices, cells):
    """p1_gradients as a masked LU inverse of the edge matrices computes them."""
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


def _cofactor_rows(e):
    """Cofactor rows and determinant of one cell's edge rows, in Python floats."""
    if len(e) == 3:
        (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = e
        rows = [
            (y2 * z3 - z2 * y3, z2 * x3 - x2 * z3, x2 * y3 - y2 * x3),
            (y3 * z1 - z3 * y1, z3 * x1 - x3 * z1, x3 * y1 - y3 * x1),
            (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2),
        ]
        return rows, x1 * rows[0][0] + y1 * rows[0][1] + z1 * rows[0][2]
    (x1, y1), (x2, y2) = e
    return [(y2, -x2), (-y1, x1)], x1 * y2 - y1 * x2


def _cofactor_p1_gradients(vertices, cells):
    """p1_gradients one cell at a time: cofactor row b over the determinant is
    the gradient of basis function b >= 1, and basis function 0 takes minus
    their sum; degenerate cells keep zero rows."""
    d = vertices.shape[1]
    cofactors = []
    for cell in cells:
        origin = vertices[cell[0]]
        cofactors.append(_cofactor_rows([[float(x) for x in vertices[a] - origin]
                                         for a in cell[1:]]))
    vols = np.array([det for _, det in cofactors]) / math.factorial(d)
    scale = np.abs(vols).max() if len(vols) else 1.0
    good = np.abs(vols) > 1e-12 * scale
    grads = np.zeros((len(cells), d + 1, d))
    for n in np.flatnonzero(good):
        rows, det = cofactors[n]
        for c in range(d):
            column = [rows[b][c] / det for b in range(d)]
            grads[n, 1:, c] = column
            grads[n, 0, c] = -sum(column[1:], column[0])
    return grads, vols, good


@pytest.mark.parametrize("degenerate", [False, True], ids=["solid", "one-degenerate-cell"])
def test_p1_gradients_match_masked_oracle_bit_for_bit(degenerate, hs_domain2,
                                                      hb_domain1_graded):
    # bit for bit against the cofactor oracle, to rounding against the LU inverse
    for dom in (hs_domain2, hb_domain1_graded):
        cells = dom.cells
        if degenerate:  # a cell with a repeated vertex has zero volume
            cells = np.vstack([cells, cells[:1, [0] + list(range(cells.shape[1] - 1))]])
        got = p1_gradients(dom.vertices, cells)
        want, want_vols, want_good = _cofactor_p1_gradients(dom.vertices, cells)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # the oracle's determinants are the mesh volumes, bit for bit
        vols = cell_geometry(dom.vertices, cells)[0]
        assert vols.tobytes() == want_vols.tobytes()
        assert vols[: len(dom.cells)].tobytes() == dom.cell_volumes.tobytes()
        assert np.array_equal(nondegenerate(vols), want_good)
        assert want_good.all() != degenerate
        grads, lu_vols, good = _lu_p1_gradients(dom.vertices, cells)
        assert np.array_equal(want_good, good)
        assert np.max(np.abs(got - grads)) <= 1e-13 * np.max(np.abs(grads))
        assert np.max(np.abs(vols - lu_vols)) <= 1e-13 * np.max(np.abs(lu_vols))
        if degenerate:
            assert not got[-1].any()


def test_field_solution_masks_cells_as_p1_gradients(hs_domain2, hb_domain1_graded,
                                                    monkeypatch):
    # the mask is taken from the mesh's own volumes, with no P1 gradient pass,
    # and it keeps exactly the cells whose P1 gradients are not zeroed
    calls = []
    original = hklab.bvp.p1_gradients
    monkeypatch.setattr(hklab.bvp, "p1_gradients",
                        lambda *args: calls.append(1) or original(*args))
    for dom in (hs_domain2, hb_domain1_graded):
        collapsed = dom.vertices.copy()
        collapsed[dom.cells[0, 1]] = collapsed[dom.cells[0, 0]]  # zero volume on that edge
        crushed = replace(dom, vertices=collapsed, cell_volumes=None)
        for mesh in (dom, crushed):
            problem = MixedBvpProblem(mesh, np.zeros(mesh.num_vertices), 0.0)
            good = solution_from_field(problem, np.zeros(mesh.num_vertices)).good
            assert np.array_equal(good, original(mesh.vertices, mesh.cells).any(axis=(1, 2)))
            assert good.all() == (mesh is dom)
    assert calls == []


def test_cell_hessians_match_einsum_oracle(hs_domain2):
    dom = hs_domain2
    grads, good = p1_gradients(dom.vertices, dom.cells), nondegenerate(dom.cell_volumes)
    rng = np.random.default_rng(4)
    nodal = rng.standard_normal(dom.vertices.shape)
    got = cell_hessians_of(nodal, dom.vertices, dom.cells, good)
    want = np.einsum("cma,cmb->cab", nodal[dom.cells], grads)
    want = 0.5 * (want + want.transpose(0, 2, 1))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("block", [7, hklab.fem.CELL_BLOCK])
def test_chunk_boundaries_leave_solve_kernels_bit_identical(block, monkeypatch, hs_domain2):
    # one chunk of every cell is the whole-mesh computation; a prime chunk
    # length puts chunk ends at every offset, and the default one splits this
    # mesh of 19,338 tets in two
    dom = hs_domain2
    assert len(dom.cells) > hklab.fem.CELL_BLOCK
    problem = capillary_problem(dom)
    monkeypatch.setattr(hklab.fem, "CELL_BLOCK", len(dom.cells))
    whole = solve_mixed_bvp(problem)
    want = [assemble_stiffness(dom.vertices, dom.cell_volumes, dom.cells, dom.graph),
            whole.cell_hessians, whole.cell_gradients]
    monkeypatch.setattr(hklab.fem, "CELL_BLOCK", block)
    stiff = assemble_stiffness(dom.vertices, dom.cell_volumes, dom.cells, dom.graph)
    assert np.array_equal(stiff.indptr, want[0].indptr)
    assert np.array_equal(stiff.indices, want[0].indices)
    assert np.array_equal(stiff.data, want[0].data)
    assert abs(stiff - stiff.T).max() == 0.0  # symmetric to the bit
    sol = solve_mixed_bvp(problem)
    assert np.array_equal(sol.f, whole.f)
    assert np.array_equal(sol.cell_hessians, want[1])
    assert np.array_equal(sol.cell_gradients, want[2])
    which = np.arange(3, len(dom.cells), 11)
    assert np.array_equal(sol.hessians_of(which), want[1][which])


def test_solve_kernels_hold_chunk_sized_temporaries(hs_cap2):
    # on the half-space mesh at 24 (145,934 tets) the P1 gradients, local
    # stiffness and slot positions of the whole mesh took 58 MB at once, and
    # the cell Hessians 28 MB: each kernel may now hold, besides its result,
    # twice the stiffness matrix's bytes plus 1 KiB per cell of one chunk
    dom = mesh_domain(mesh_surface(hs_cap2, 24), None, 24, grading=0.0)
    graph, good, nv = dom.graph, nondegenerate(dom.cell_volumes), dom.num_vertices
    nodal = np.random.default_rng(5).standard_normal(dom.vertices.shape)

    def transient(kernel):
        tracemalloc.start()
        try:
            result = kernel()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak - current

    stiff, used = transient(
        lambda: assemble_stiffness(dom.vertices, dom.cell_volumes, dom.cells, graph))
    limit = 2 * (stiff.data.nbytes + stiff.indices.nbytes + stiff.indptr.nbytes)
    limit += 1024 * hklab.fem.CELL_BLOCK
    assert used <= limit
    assert transient(lambda: load_volume(dom.cells, dom.cell_volumes, np.ones(nv), nv))[1] <= limit
    assert transient(lambda: cell_hessians_of(nodal, dom.vertices, dom.cells, good))[1] <= limit
    # patch recovery fits at most _FIT_POINTS patch points per call, and may
    # hold, besides its result, the vertex graph's bytes plus 256 B per point
    # of one call; one call per hop held 17.6 MB here
    fit_limit = graph.data.nbytes + graph.indices.nbytes + graph.indptr.nbytes
    fit_limit += 256 * hklab.fem._FIT_POINTS
    recovery = transient(lambda: recover_nodal_gradients(dom.vertices, graph, nodal[:, 0]))
    assert recovery[1] <= fit_limit


@pytest.mark.parametrize("mesh", ["hs_domain2", "hb_domain1_graded"])
def test_fit_batches_leave_gradients_bit_identical(mesh, request, monkeypatch):
    # an odd cap cuts groups of every patch size and packs small ones together
    dom = request.getfixturevalue(mesh)
    f = _smooth_field(dom.vertices, 3)
    monkeypatch.setattr(hklab.fem, "_FIT_POINTS", 2**40)
    whole = recover_nodal_gradients(dom.vertices, dom.graph, f)
    monkeypatch.setattr(hklab.fem, "_FIT_POINTS", 97)
    assert recover_nodal_gradients(dom.vertices, dom.graph, f).tobytes() == whole.tobytes()


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
# corner fits and the wedge model field
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


def test_wedge_model_field_finite_difference_oracle():
    # independent check that r^lam cos(lam eta), the corner factor of
    # wedge_model_values, is harmonic: its cartesian five-point laplacian vanishes
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
# the preconditioners
# ---------------------------------------------------------------------------


def _reduced_system(problem):
    """The free-vertex system that solve_mixed_bvp hands to pcg, and its mask."""
    dom = problem.domain
    vols = dom.cell_volumes
    nv = dom.num_vertices
    a = assemble_stiffness(dom.vertices, vols, dom.cells, dom.graph)
    t_areas = dom.facet_measures(dom.t_facets)
    b = load_facets(dom.t_facets, t_areas, np.full(len(dom.t_facets), problem.flux_constant), nv)
    b -= load_volume(dom.cells, vols, problem.rhs, nv)
    if problem.robin_gamma:
        a = a - problem.robin_gamma * assemble_boundary_mass(dom.t_facets, t_areas, dom.graph)
    free = np.ones(nv, dtype=bool)
    free[np.unique(dom.sigma_facets)] = False
    return a[free][:, free].tocsr(), b[free], free


def _jacobi_pcg_oracle(a, b, tol, max_iter):
    # the Jacobi loop as it was before the vector updates went in place
    diag = a.diagonal()
    minv = 1.0 / diag
    x = np.zeros_like(b)
    r = b.copy()
    b_norm = float(np.linalg.norm(b))
    z = minv * r
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        ap = a @ p
        pap = float(p @ ap)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        res = float(np.linalg.norm(r))
        if res <= tol * b_norm:
            return x, it, res / b_norm
        z = minv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError("oracle did not converge")


@pytest.fixture(scope="module")
def hs_domain2_res8(hs_cap2):
    return mesh_domain(mesh_surface(hs_cap2, 8), None, 8, grading=0.0)


def test_jacobi_pcg_matches_previous_loop_bit_for_bit(hs_domain2_res8):
    problem = capillary_problem(hs_domain2_res8)
    a, b, free = _reduced_system(problem)
    want = _jacobi_pcg_oracle(a, b, 1e-10, 10000)
    got = pcg(a, b, 1e-10, 10000)
    assert want[1] > 50
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]
    # a solid solve keeps the Jacobi path
    assert np.array_equal(solve_mixed_bvp(problem).f[free], want[0])


def test_pcg_rejects_indefinite_preconditioner(hs_domain1):
    a, b, _ = _reduced_system(capillary_problem(hs_domain1))
    minv = 1.0 / a.diagonal()
    with pytest.raises(SolverError, match="not positive definite"):
        pcg(a, b, 1e-10, 100, lambda r: -minv * r)
    with pytest.raises(SolverError, match="not positive definite"):
        pcg(a, b, 1e-10, 100, lambda r: np.full_like(r, np.nan))


def _hops(a, sources):
    """Graph distance (edges of a's pattern) from the sources to every vertex."""
    n = a.shape[0]
    dist = np.full(n, -1)
    dist[sources] = 0
    queue = deque(int(v) for v in sources)
    while queue:
        v = queue.popleft()
        for w in a.indices[a.indptr[v]:a.indptr[v + 1]]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


@pytest.mark.parametrize("mesh", ["hb_domain1_graded", "hs_domain1", "hs_domain2"])
def test_aggregates_are_connected_disjoint_covers(mesh, request):
    from scipy.sparse.csgraph import connected_components

    a, _, _ = _reduced_system(capillary_problem(request.getfixturevalue(mesh)))
    labels, roots = aggregates(a)
    again = aggregates(a.copy())
    assert np.array_equal(labels, again[0]) and np.array_equal(roots, again[1])
    n = a.shape[0]
    assert labels.shape == (n,) and labels.min() == 0 and labels.max() == len(roots) - 1
    assert 5 <= n / len(roots) <= 30
    for k, root in enumerate(roots):
        members = np.flatnonzero(labels == k)
        # the root's closed neighbourhood lies in its aggregate
        assert np.all(labels[a.indices[a.indptr[root]:a.indptr[root + 1]]] == k)
        assert connected_components(a[members][:, members], directed=False)[0] == 1
    # the roots are a maximal distance-2 independent set
    for root in roots[:50]:
        dist = _hops(a, [root])
        near = np.flatnonzero((dist >= 0) & (dist <= 2))
        assert np.intersect1d(near, roots).tolist() == [root]
    assert _hops(a, roots).max() <= 2


def test_two_level_is_symmetric_positive_definite(hb_domain1_graded):
    a, _, _ = _reduced_system(capillary_problem(hb_domain1_graded))
    m = np.column_stack([two_level(a)(e) for e in np.eye(a.shape[0])])
    assert np.abs(m - m.T).max() <= 1e-10 * np.abs(m).max()
    assert np.linalg.eigvalsh(0.5 * (m + m.T)).min() > 0.0


def test_planar_solve_iterations_do_not_grow_with_resolution(hb_cap1):
    from scipy.sparse.linalg import spsolve

    dom = mesh_domain(mesh_surface(hb_cap1, 256), None, 256, grading=0.5)
    problem = capillary_problem(dom)
    sol = solve_mixed_bvp(problem)
    assert sol.iterations <= 100  # Jacobi takes over 500
    a, b, free = _reduced_system(problem)
    direct = spsolve(a.tocsc(), b)
    assert np.linalg.norm(sol.f[free] - direct) <= 1e-8 * np.linalg.norm(direct)


def test_solve_logs_its_preconditioner(hs_domain1, hs_domain2_res8, caplog):
    with caplog.at_level(logging.INFO, logger="hklab.bvp"):
        planar = solve_mixed_bvp(capillary_problem(hs_domain1))
        solid = solve_mixed_bvp(capillary_problem(hs_domain2_res8))
    lines = [r.getMessage() for r in caplog.records if r.name == "hklab.bvp"]
    assert len(lines) == 2
    assert lines[0].startswith("solve: two-level preconditioner, coarse size ")
    assert f", {planar.iterations} iterations, residual " in lines[0]
    assert lines[1].startswith("solve: jacobi preconditioner, coarse size 0, ")
    assert f", {solid.iterations} iterations, residual " in lines[1]


def test_solid_solve_leaves_sparse_linalg_unloaded():
    # the coarse LU of the planar preconditioner is the only user of scipy.sparse.linalg
    probe = (
        "import sys\n"
        "from hklab import make_cap, mesh_surface, mesh_domain, capillary_problem, "
        "solve_mixed_bvp\n"
        "cap = make_cap('half-space', 1.0, 1.0, 2)\n"
        "solve_mixed_bvp(capillary_problem(mesh_domain(mesh_surface(cap, 8), None, 8)))\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    done = run_python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


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


def _oracle_gamma_t_flux(domain, solution, weighted):
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
                    w = verts[corner][-1] if weighted else 1.0
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
        w = mid[-1] if weighted else 1.0
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
    solution = solution_from_field(MixedBvpProblem(dom, np.ones(dom.num_vertices), 0.0), f)
    pairs = [(gamma_mu_vertical_integral(dom), _oracle_gamma_mu_vertical_integral(dom))]
    for weighted in (False, True):
        pairs.append((gamma_t_flux(dom, solution, weighted),
                      _oracle_gamma_t_flux(dom, solution, weighted)))
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
        assert float(measure.sum()) == len(dom.gamma_vertices)  # the counting measure
    else:
        # the length of the ring through the Gamma vertices in azimuth order
        ring = dom.vertices[dom.gamma_vertices]
        ring = ring[np.argsort(np.arctan2(ring[:, 1], ring[:, 0]))]
        length = np.linalg.norm(np.roll(ring, -1, axis=0) - ring, axis=1).sum()
        assert abs(measure.sum() - length) <= 1e-12 * length

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
