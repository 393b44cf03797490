"""The mesh checks against the expressions they replaced.

``validate``, ``domain_measure`` and ``theta_DB`` gather rows of (n, 2)
arrays with ``np.take`` and add the two components of a row dot product
one by one (``pair_sum``), where they used fancy indexing and
``.sum(axis=...)`` / ``.max(axis=...)``.  The references below are the
earlier expressions.  Both add the same terms in the same order, so every
value must be the same bit for bit, signed zeros included: arrays are
compared by their bytes, and ``sushi mesh-check`` prints the same text.
"""

import numpy as np
import pytest

import sushi.cli
from conftest import jittered_file_mesh
from sushi.cli import main
from sushi.geometry import (
    DIM,
    ValidationReport,
    domain_measure,
    segment_sums,
    theta_D,
    theta_DB,
    validate,
)
from sushi.run import parse_mesh_spec
from sushi.spaces import compute_weights, partition_faces


def reference_domain_measure(mesh):
    bf = mesh.face_boundary
    normal = mesh.cone_normal[mesh.face_cones[bf, 0]]
    flux = mesh.face_measure[bf] * (mesh.face_centre[bf] * normal).sum(axis=1)
    return float(flux.sum()) / DIM


def reference_validate(mesh):
    d = DIM
    ptr = mesh.cell_ptr
    w = mesh.face_measure[mesh.cone_face]
    wn = w[:, None] * mesh.cone_normal
    rel = mesh.face_centre[mesh.cone_face] - mesh.cell_point[mesh.cone_cell]
    m = segment_sums(wn[:, :, None] * rel[:, None, :], ptr)
    meas = mesh.cell_measure
    ident = np.abs(m - meas[:, None, None] * np.eye(d)).max(axis=(1, 2)) / meas
    cone = np.abs(segment_sums(w * mesh.cone_dist, ptr) - d * meas) / meas
    closure = np.abs(segment_sums(wn, ptr)).max(axis=1) / segment_sums(w, ptr)

    cones = np.arange(mesh.n_cones)
    unlisted = ~(mesh.face_cones[mesh.cone_face] == cones[:, None]).any(axis=1)
    topo = [f"face {mesh.cone_face[i]} does not list cell {mesh.cone_cell[i]}"
            for i in np.nonzero(unlisted)[0]]
    fc = np.maximum(mesh.face_cones, 0)
    wrong = (mesh.face_cones >= 0) & (
        (mesh.cone_face[fc] != np.arange(mesh.n_faces)[:, None])
        | (mesh.cone_cell[fc] != mesh.face_cells)
    )
    topo += [f"face {f} not listed by cell {mesh.face_cells[f, j]}"
             for f, j in zip(*np.nonzero(wrong))]
    domain = reference_domain_measure(mesh)
    vol_rel = abs(float(meas.sum()) - domain) / abs(domain)
    return ValidationReport(ident, cone, closure, vol_rel, topo)


def reference_theta_DB(mesh, weights):
    faces = np.repeat(np.arange(mesh.n_faces), np.diff(weights.ptr))
    offset = mesh.cell_point[weights.points] - mesh.face_centre[faces]
    spread = np.bincount(faces, weights=np.abs(weights.beta) * (offset ** 2).sum(axis=1),
                         minlength=mesh.n_faces)
    on = (np.diff(weights.ptr) > 0)[mesh.cone_face]
    ratio = spread[mesh.cone_face[on]] / mesh.cell_diameter[mesh.cone_cell[on]] ** 2
    return max(theta_D(mesh), float(np.max(ratio, initial=0.0)))


SPECS = ["rect:6x5", "tri:4", "ncrect:2", "barrier:1", "barrier:2", "barrier:3", "jittered",
         "corrupted"]


def build(spec, rng, tmp_path):
    """The mesh of ``spec``, its region map and the spec ``mesh-check`` reads."""
    if spec == "jittered":
        path = tmp_path / "jittered.mesh"
        mesh = jittered_file_mesh(rng, path)
        return mesh, None, f"file:{path}"
    if spec == "corrupted":
        # a moved face centre and two swapped face cone pairs: identity
        # residuals above the tolerance, and both kinds of topology error
        mesh, _, _ = parse_mesh_spec("rect:3x3")
        mesh.face_centre[7] += (0.1, 0.0)
        mesh.face_cones[[2, 5]] = mesh.face_cones[[5, 2]]
        return mesh, None, None
    mesh, regions, _ = parse_mesh_spec(spec)
    return mesh, regions, spec


def assert_same_report(got, ref):
    for name in ("identity_residuals", "cone_sum_residuals", "closure_residuals"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert np.float64(got.volume_residual).tobytes() == np.float64(ref.volume_residual).tobytes()
    assert got.topology_errors == ref.topology_errors
    assert got.passed == ref.passed


@pytest.mark.parametrize("spec", SPECS)
def test_mesh_checks_equal_reference_bit_for_bit(spec, rng, tmp_path, monkeypatch, capsys):
    mesh, regions, label = build(spec, rng, tmp_path)
    assert np.float64(domain_measure(mesh)).tobytes() == \
        np.float64(reference_domain_measure(mesh)).tobytes()
    report = validate(mesh)
    assert_same_report(report, reference_validate(mesh))
    assert report.passed == (spec != "corrupted")
    if spec == "corrupted":
        assert {msg.split()[2] for msg in report.topology_errors} == {"does", "not"}
    else:
        policy = "all-barycentric" if regions is None else "discontinuity"
        part = partition_faces(mesh, policy, regions)
        weights = compute_weights(mesh, part, regions)
        assert np.float64(theta_DB(mesh, weights)).tobytes() == \
            np.float64(reference_theta_DB(mesh, weights)).tobytes()
        # the printed check: the same text from the reference report
        assert main(["mesh-check", "--mesh", label]) == 0
        out = capsys.readouterr().out
        monkeypatch.setattr(sushi.cli, "validate", reference_validate)
        assert main(["mesh-check", "--mesh", label]) == 0
        assert capsys.readouterr().out == out
