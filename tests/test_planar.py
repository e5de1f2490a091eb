import numpy as np
import pytest

from centroid_sections import (ConstructionError, bisected_chords,
                               planar_centroid, polygon_body, radial_body)

from centroid_sections import planar
from oracles import (SEED, chord_defect_orthogonality, chord_defect_two_calls,
                     count_antipodal_sign_changes, random_convex_hull,
                     shifted_radius_loop)


def _shifted_disk(center=(0.2, 0.0), r=1.0):
    cx, cy = center

    def rho(t):
        t = np.asarray(t, float)
        b = cx * np.cos(t) + cy * np.sin(t)
        return b + np.sqrt(b * b + r * r - cx * cx - cy * cy)

    return radial_body(rho)


def _tilted_ellipse_rho(b=0.3, offset=0.8, tilt=np.pi / 4):
    """Radial profile about the origin of the ellipse with semi-axes 1 and
    b, major axis at angle tilt, centered offset along that axis from the
    origin; also returns the center and the quadratic form Q with x - center
    on the boundary iff (x - center)^T Q (x - center) = 1."""
    R = np.array([[np.cos(tilt), -np.sin(tilt)],
                  [np.sin(tilt), np.cos(tilt)]])
    Q = R @ np.diag([1.0, 1.0 / b ** 2]) @ R.T
    center = -offset * R[:, 0]

    # elementwise arithmetic only, so scalar and array calls agree bit
    # for bit (a matrix product need not)
    (q00, q01), (_, q11) = Q
    p0, p1 = Q @ center
    C = center @ Q @ center - 1.0

    def rho(t):
        t = np.asarray(t, float)
        ct, st = np.cos(t), np.sin(t)
        A = q00 * ct * ct + 2.0 * q01 * ct * st + q11 * st * st
        B = -2.0 * (ct * p0 + st * p1)
        return (-B + np.sqrt(B * B - 4.0 * A * C)) / (2.0 * A)

    return rho, center, Q


def _equilateral(side=2.0):
    h = side * np.sqrt(3.0) / 2.0
    return polygon_body([(0.0, 0.0), (side, 0.0), (side / 2.0, h)])


# centroids


def test_square_centroid_origin():
    body = polygon_body([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    assert np.max(np.abs(planar_centroid(body))) <= 1e-15


def test_triangle_centroid_vertex_average():
    body = polygon_body([(0, 0), (3, 0), (0, 3)])
    assert np.max(np.abs(planar_centroid(body) - 1.0)) <= 1e-13


def test_half_disk_centroid_closed_form():
    t = np.linspace(0.0, np.pi, 10 ** 4)
    verts = np.column_stack([np.cos(t), np.sin(t)])
    body = polygon_body(verts[::-1])  # counterclockwise with the flat edge
    c = planar_centroid(body)
    assert abs(c[0]) <= 1e-9
    assert abs(c[1] - 4.0 / (3.0 * np.pi)) <= 1e-6


def test_radial_centroid_shifted_disk():
    c = planar_centroid(_shifted_disk())
    assert abs(c[0] - 0.2) <= 1e-9 and abs(c[1]) <= 1e-12


# the chord defect about the centroid


def _oracle_radius(rho, c):
    """The oracle's radius about c of the curve with radial profile rho
    about the origin, at each angle of t."""
    def radius(t):
        return np.reshape([shifted_radius_loop(rho, c, a) for a in np.ravel(t)],
                          np.shape(t))
    return radius


def _blob_rho(t):
    return 1.0 + 0.3 * np.cos(t) + 0.1 * np.sin(2.0 * t)


def _assert_reflection_signs_match_oracle(rho, c):
    # the reflection defect at 512 boundary angles has the sign of the
    # oracle's chord defect about c in the direction of the boundary point
    body = radial_body(rho)
    t = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    r = rho(t)
    alpha = np.arctan2(r * np.sin(t) - c[1], r * np.cos(t) - c[0])
    radius = _oracle_radius(rho, c)
    want = radius(alpha) - radius(alpha + np.pi)
    got = planar._chord_defect(body, c, t)
    assert np.min(np.abs(want)) > 1e-9
    assert np.array_equal(np.sign(got), np.sign(want))


def _assert_symmetric(rho):
    # symmetric_all, and about a point off the centre, where the chord
    # defect does not vanish, the reflection defect's signs are the
    # oracle's.  The point lies about halfway to the profile's origin: the
    # oracle's bracket, centred on the direction about the origin, can
    # hold the chord's far end instead when c is far from the origin
    res = bisected_chords(radial_body(rho))
    assert res["symmetric_all"] is True and res["directions"] == []
    _assert_reflection_signs_match_oracle(
        rho, 0.5 * planar_centroid(radial_body(rho)) + [0.05, -0.03])


def test_centered_disk_symmetric():
    _assert_symmetric(lambda t: np.full_like(np.asarray(t, float), 1.3))


def test_shifted_disk_symmetric():
    body = _shifted_disk()
    assert abs(body.radius(0.0) - body.radius(np.pi) - 0.4) <= 1e-12
    _assert_symmetric(body.radial_fn)


def test_recenter_triangle_keeps_asymmetry():
    # the triangle translated so that its centroid is the origin, as the
    # scan translates a polygon: its chord defect about 0 is far from 0
    body = _equilateral()
    centered = polygon_body(body.vertices - planar_centroid(body))
    assert np.max(np.abs(planar_centroid(centered))) <= 1e-12
    t = np.linspace(0.0, np.pi, 181, endpoint=False)
    defect = planar._chord_defect(centered, np.zeros(2), t)
    assert np.max(np.abs(defect)) > 1e-2
    assert bisected_chords(body)["symmetric_all"] is False


def test_off_centre_tilted_ellipse_symmetric():
    # off-center tilted ellipse, whose radii about its center the oracle
    # gives as the closed form does
    rho, center, Q = _tilted_ellipse_rho()
    c = planar_centroid(radial_body(rho))
    assert np.max(np.abs(c - center)) <= 1e-12
    t = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    u = np.stack([np.cos(t), np.sin(t)], axis=-1)
    exact = 1.0 / np.sqrt(np.einsum("...i,ij,...j->...", u, Q, u))
    assert np.max(np.abs(_oracle_radius(rho, c)(t) - exact)) <= 1e-12
    _assert_symmetric(rho)


def test_defect_orthogonality_after_recenter():
    # the blob recentred by the oracle: its radii about the centroid
    c = planar_centroid(radial_body(_blob_rho))
    res = chord_defect_orthogonality(_oracle_radius(_blob_rho, c))
    assert np.max(np.abs(res)) <= 1e-8


def test_defect_antiperiodic():
    # the equilateral triangle as a radial profile about a point that is
    # not its centroid: its chord defect about the centroid is
    # antiperiodic and far from 0
    v = _equilateral().vertices
    c = planar_centroid(_equilateral())
    origin = np.array([1.0, 0.3])
    # its profile about origin: the nearest edge line ahead of the ray,
    # h_i / cos(theta - a_i) for the outward unit normals a_i
    e = np.roll(v, -1, axis=0) - v
    normal = np.stack([e[:, 1], -e[:, 0]], axis=1) / np.hypot(*e.T)[:, None]
    h = np.sum(normal * (v - origin), axis=1)

    def rho(t):
        cos = normal @ [np.cos(t), np.sin(t)]
        return float(np.min(h[cos > 0] / cos[cos > 0]))

    radius = _oracle_radius(rho, c - origin)
    t = np.linspace(0.0, 2.0 * np.pi, 257, endpoint=False)
    f = radius(t) - radius(t + np.pi)
    g = radius(t + np.pi) - radius(t + 2.0 * np.pi)
    assert np.max(np.abs(f + g)) <= 1e-12
    assert np.max(np.abs(f)) > 1e-2


# bisected chords


def test_equilateral_triangle_three_side_directions():
    side_angles = np.array([0.0, np.pi / 3.0, 2.0 * np.pi / 3.0])
    res = bisected_chords(_equilateral())
    assert res["count"] == 3
    got = np.sort(np.asarray(res["directions"]))
    for angle, ref in zip(got, np.sort(side_angles)):
        assert abs(angle - ref) <= 1e-8


def test_scalene_triangle_directions_parallel_to_sides():
    # the thin triangles' three directions lie within 2h rad of each
    # other, across the scan's wrap at 0 = pi: the vertex directions, the
    # scan's angles, separate them, down to h = 1e-15, and each is the
    # root of a sinusoid in closed form, to the rounding of arctan2 mod pi.
    # The last triangles' vertex (2, -d) lies just below the horizontal
    # through c, where arctan2 mod pi rounds up to pi: the scan reads that
    # direction as 0
    for verts in ([(0.0, 0.0), (2.0, 0.0), (0.6, 1.5)],
                  *([(0.0, 0.0), (1.0, 0.0), (0.5, h)]
                    for h in (1e-4, 1e-6, 1e-12, 1e-13, 1e-14, 1e-15)),
                  *([(-1.0, -1.0), (2.0, -d), (-1.0, 1.0)]
                    for d in (1e-20, 1e-17))):
        v = np.asarray(verts)
        sides = np.arctan2(*(np.roll(v, -1, axis=0) - v).T[::-1]) % np.pi
        res = bisected_chords(polygon_body(verts))
        assert res["count"] == 3
        got = np.sort(np.asarray(res["directions"]))
        assert np.max(np.abs(got - np.sort(sides))) <= 1e-15, verts


@pytest.mark.parametrize("h", [1e-4, 1e-6])
def test_thin_radial_triangle_is_resolved_by_rescans(h, monkeypatch):
    # a thin triangle as a radial profile about a point that is not its
    # centroid: the trapezoid rule does not resolve a profile this sharp,
    # and planar_centroid refuses it.  About the triangle's own centroid,
    # which the test supplies, the six ends of its three chords lie within
    # about 4h of the boundary angles 0 and pi, closer than the
    # 8192-angle scan's step, so the rescans resolve them
    v = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, h)])
    origin = np.array([0.45, 0.25 * h])

    def rho(t):
        return planar._polygon_radius(v - origin, t)

    body = radial_body(rho)
    # at h = 1e-4 the 4096- and 2048-angle centroids differ by 1.6e-3,
    # and the 4096-angle one is (0.097, 8.8e-7) about the profile's origin
    # against the triangle's (0.05, h/12)
    with pytest.raises(ConstructionError, match="4096 and 2048 angles"):
        planar_centroid(body)
    with pytest.raises(ConstructionError, match="not resolved"):
        bisected_chords(body)
    c = np.mean(v, axis=0) - origin
    monkeypatch.setattr(planar, "planar_centroid", lambda body: c)
    res = bisected_chords(body)
    assert res["count"] == 3
    radius = _oracle_radius(rho, c)
    for a in res["directions"]:
        ends = np.array([a - 1e-8, a + 1e-8])
        defect = radius(ends) - radius(ends + np.pi)
        assert defect[0] * defect[1] < 0, a
    monkeypatch.setattr(planar, "_REFINE_LEVELS", 0)
    with pytest.raises(ConstructionError, match="could not resolve"):
        bisected_chords(body)


def test_centered_ellipse_symmetric():
    def rho(t):
        t = np.asarray(t, float)
        return 2.0 / np.sqrt(np.cos(t) ** 2 + 4.0 * np.sin(t) ** 2)

    res = bisected_chords(radial_body(rho))
    assert res["symmetric_all"] is True
    assert res["count"] is None
    assert res["directions"] == []


def test_blob_count_matches_brute_scan():
    blob = radial_body(_blob_rho)
    # oracle first: a sign scan of the antipodal defect of the oracle's
    # radii about the centroid (4096 angles: 0.2 ms a radius)
    expected = count_antipodal_sign_changes(
        _oracle_radius(_blob_rho, planar_centroid(blob)), resolution=4096)
    res = bisected_chords(blob)
    assert res["count"] == expected
    assert res["count"] >= 3 and res["count"] % 2 == 1


def test_root_on_a_scan_angle_is_that_angle():
    # the chord defect of this triangle is exactly 0 at 0 and pi/2 and
    # rises through 0 at pi/2, between the vertex directions pi/4 and
    # 2.03: the sinusoid's root placed there is pi/2, not a point beside it
    res = bisected_chords(polygon_body([(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)]))
    assert res["count"] == 3
    got = np.asarray(res["directions"])
    assert np.min(np.abs(got - np.pi / 2)) <= 1e-10


def test_random_convex_polygons_have_odd_count_at_least_three():
    rng = np.random.default_rng(SEED)
    counts = {}
    for _ in range(100):
        body = polygon_body(random_convex_hull(rng))
        res = bisected_chords(body)
        assert res["count"] >= 3
        assert res["count"] % 2 == 1
        counts[res["count"]] = counts.get(res["count"], 0) + 1
    assert sum(counts.values()) == 100


# input validation


def test_polygon_rejects_degenerate_input():
    with pytest.raises(ValueError):
        polygon_body([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        polygon_body([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(ValueError):  # reflex vertex
        polygon_body([(0, 0), (2, 0), (1, 0.2), (1, 2)])


def test_polygon_closing_vertex_is_relative_to_size():
    # a repeated closing vertex is dropped, and a polygon far smaller than
    # any absolute tolerance keeps every vertex
    closed = polygon_body([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
    assert closed.vertices.shape == (4, 2)
    tiny = polygon_body([(0.0, 0.0), (1e-10, 0.0), (0.0, 1e-10)])
    assert tiny.vertices.shape == (3, 2)
    assert bisected_chords(tiny)["count"] == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_polygon_rejects_nonfinite_vertices(bad):
    with pytest.raises(ValueError, match="finite"):
        polygon_body([(0.0, 0.0), (2.0, 0.0), (0.6, bad)])


def test_polygon_rejects_huge_coordinates():
    with pytest.raises(ValueError, match="at most"):
        polygon_body([(0.0, 0.0), (1e300, 0.0), (0.0, 1e300)])


def test_unresolved_scan_is_a_construction_error():
    # directions 2e-16 rad apart across the scan's wrap, finer than the
    # angles near pi that float64 holds
    with pytest.raises(ConstructionError, match="could not resolve"):
        bisected_chords(polygon_body([(0.0, 0.0), (1.0, 0.0), (0.5, 1e-16)]))


def test_radial_rejects_nonpositive_profile():
    with pytest.raises(ValueError):
        radial_body(lambda t: np.cos(t))


def test_polygon_accepts_clockwise_vertex_order():
    cw = polygon_body([(-1, -1), (-1, 1), (1, 1), (1, -1)])
    assert np.max(np.abs(planar_centroid(cw))) <= 1e-15


@pytest.mark.parametrize("name", ["blob", "ellipse", "triangle", "polygon"])
def test_chord_defect_one_radius_call_bit_equal_to_two(name, monkeypatch):
    # a polygon's defect about c = 0 from one radius call on
    # [theta, theta + pi] against the two-call oracle: the same result, bit
    # for bit, from half the radius calls of the defect.  A radial body's
    # reflection defect about its centroid c != 0, from each angle alone:
    # the same result, bit for bit, however the angles are batched
    from centroid_sections import cli
    if name == "polygon":
        body = polygon_body(random_convex_hull(np.random.default_rng(SEED)))
    else:
        body = cli._DEMOS[name]()
    calls = {}
    radius = planar.PlanarBody.radius
    batched = planar._chord_defect

    def counted_radius(self, theta):
        calls["radius"] += 1
        return radius(self, theta)

    def counted(defect):
        def wrapped(body, c, theta):
            calls["defect"] += 1
            return defect(body, c, theta)
        return wrapped

    def two_calls(body, c, theta):
        assert not np.any(c)
        return chord_defect_two_calls(body, theta)

    def one_by_one(body, c, theta):
        assert np.any(c)
        return np.concatenate([batched(body, c, theta[i:i + 1])
                               for i in range(theta.size)])

    monkeypatch.setattr(planar.PlanarBody, "radius", counted_radius)
    runs = {}
    for label, defect in (("one", batched), ("other", two_calls
                                              if body.is_polygon
                                              else one_by_one)):
        monkeypatch.setattr(planar, "_chord_defect", counted(defect))
        calls.update(radius=0, defect=0)
        runs[label] = repr(bisected_chords(body)), dict(calls)
    (got, one), (want, other) = runs["one"], runs["other"]
    assert got == want
    assert one["defect"] == other["defect"] > 0
    if body.is_polygon:
        elsewhere = one["radius"] - one["defect"]
        assert other["radius"] - elsewhere == 2 * one["defect"]


def test_polygon_radius_same_bits_however_batched():
    # rays through a vertex, and a float either side of it, where two
    # edge lines are nearly equally near: a direction's radius does not
    # depend on the others in the call (in three of these 100 polygons a
    # ray missed by a half-open edge rule once moved the radii of others)
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = random_convex_hull(rng, 12)
        v = polygon_body(v - v.mean(axis=0)).vertices
        th = np.arctan2(v[:, 1], v[:, 0])
        th = np.concatenate([th, np.nextafter(th, 10), np.nextafter(th, -10)])
        batch = planar._polygon_radius(v, th)
        alone = [planar._polygon_radius(v, th[i:i + 1])[0]
                 for i in range(th.size)]
        assert np.array_equal(batch, alone)
