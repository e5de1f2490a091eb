import numpy as np
import pytest

from centroid_sections import (ConstructionError, bisected_chords,
                               planar_centroid, polygon_body, radial_body,
                               recenter)

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


# recentering


def test_recenter_centered_disk_noop():
    disk = radial_body(lambda t: np.full_like(np.asarray(t, float), 1.3))
    again = recenter(disk)
    t = np.linspace(0.0, 2.0 * np.pi, 64)
    assert np.max(np.abs(again.radius(t) - 1.3)) <= 1e-12


def test_recenter_shifted_disk_kills_defect():
    body = _shifted_disk()
    assert abs(body.radius(0.0) - body.radius(np.pi) - 0.4) <= 1e-12
    centered = recenter(body)
    assert abs(centered.radius(0.0) - centered.radius(np.pi)) <= 1e-9
    assert np.max(np.abs(planar_centroid(centered))) <= 1e-9


def test_recenter_triangle_keeps_asymmetry():
    centered = recenter(_equilateral())
    assert np.max(np.abs(planar_centroid(centered))) <= 1e-12
    t = np.linspace(0.0, np.pi, 181, endpoint=False)
    defect = centered.radius(t) - centered.radius(t + np.pi)
    assert np.max(np.abs(defect)) > 1e-2


def test_recenter_matches_scalar_loop_and_closed_form():
    # off-center tilted ellipse: most directions widen the first bracket
    rho, center, Q = _tilted_ellipse_rho()
    body = radial_body(rho)
    c = planar_centroid(body)
    assert np.max(np.abs(c - center)) <= 1e-12
    t = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    ca, sa = np.cos(t), np.sin(t)

    def cross(theta):
        r = rho(theta)
        return ca * (r * np.sin(theta) - c[1]) - sa * (r * np.cos(theta) - c[0])

    widened = cross(t - np.pi / 2) * cross(t + np.pi / 2) > 0
    assert 0 < widened.sum() < t.size
    want = np.array([shifted_radius_loop(rho, c, a) for a in t])
    got = recenter(body).radius(t)
    assert np.array_equal(got, want)
    # independent: the radial function of the ellipse about its center
    u = np.stack([ca, sa], axis=-1)
    exact = 1.0 / np.sqrt(np.einsum("...i,ij,...j->...", u, Q, u))
    assert np.max(np.abs(got - exact)) <= 1e-12


def test_recenter_scalar_and_2d_theta():
    blob = radial_body(lambda t: 1.0 + 0.3 * np.cos(t) + 0.1 * np.sin(2.0 * t))
    centered = recenter(blob)
    t = np.linspace(0.0, 2.0 * np.pi, 12).reshape(3, 4)
    grid = centered.radius(t)
    assert grid.shape == (3, 4)
    one = centered.radial_fn(0.7)
    assert isinstance(one, float)
    assert one == float(centered.radius(np.array([0.7]))[0])
    assert np.array_equal(grid.ravel(), centered.radius(t.ravel()))


def test_shifted_radii_raise_without_bracket():
    # from (3, 0) the vertical line misses the unit circle, the horizontal
    # one does not: one direction without a bracket fails the whole call
    circle = lambda t: np.ones_like(np.asarray(t, float))
    c = np.array([3.0, 0.0])
    ok = planar._shifted_radii(circle, c, np.array([np.pi]))
    assert np.all(np.isfinite(ok))
    with pytest.raises(ValueError, match="bracket"):
        planar._shifted_radii(circle, c, np.array([np.pi, np.pi / 2]))


def test_defect_orthogonality_after_recenter():
    blob = radial_body(lambda t: 1.0 + 0.3 * np.cos(t) + 0.1 * np.sin(2.0 * t))
    centered = recenter(blob)
    res = chord_defect_orthogonality(centered.radius)
    assert np.max(np.abs(res)) <= 1e-8


def test_defect_antiperiodic():
    centered = recenter(_equilateral())
    t = np.linspace(0.0, 2.0 * np.pi, 257, endpoint=False)
    f = centered.radius(t) - centered.radius(t + np.pi)
    g = centered.radius(t + np.pi) - centered.radius(t + 2.0 * np.pi)
    assert np.max(np.abs(f + g)) <= 1e-12


# bisected chords


def test_equilateral_triangle_three_side_directions():
    side_angles = np.array([0.0, np.pi / 3.0, 2.0 * np.pi / 3.0])
    res = bisected_chords(_equilateral())
    assert res["count"] == 3
    got = np.sort(np.asarray(res["directions"]))
    for angle, ref in zip(got, np.sort(side_angles)):
        assert abs(angle - ref) <= 1e-8


def test_scalene_triangle_directions_parallel_to_sides():
    # the thin triangles' three directions lie within 2e-4 and 2e-6 rad of
    # each other, across the scan's wrap at 0 = pi: clustered windows of
    # the scan are rescanned until they separate
    for verts in ([(0.0, 0.0), (2.0, 0.0), (0.6, 1.5)],
                  [(0.0, 0.0), (1.0, 0.0), (0.5, 1e-4)],
                  [(0.0, 0.0), (1.0, 0.0), (0.5, 1e-6)]):
        v = np.asarray(verts)
        sides = np.arctan2(*(np.roll(v, -1, axis=0) - v).T[::-1]) % np.pi
        res = bisected_chords(polygon_body(verts))
        assert res["count"] == 3
        got = np.sort(np.asarray(res["directions"]))
        assert np.max(np.abs(got - np.sort(sides))) <= 1e-10, verts


def test_centered_ellipse_symmetric():
    def rho(t):
        t = np.asarray(t, float)
        return 2.0 / np.sqrt(np.cos(t) ** 2 + 4.0 * np.sin(t) ** 2)

    res = bisected_chords(radial_body(rho))
    assert res["symmetric_all"] is True
    assert res["count"] is None
    assert res["directions"] == []


def test_blob_count_matches_brute_scan():
    blob = radial_body(lambda t: 1.0 + 0.3 * np.cos(t) + 0.1 * np.sin(2.0 * t))
    centered = recenter(blob)
    # oracle first: dense sign scan of the antipodal defect
    expected = count_antipodal_sign_changes(centered.radius)
    res = bisected_chords(centered)
    assert res["count"] == expected
    assert res["count"] >= 3 and res["count"] % 2 == 1


def test_root_on_a_scan_angle_is_that_angle():
    # the chord defect of this triangle is exactly 0 at the scan angles 0
    # and pi/2 and rises through 0 at pi/2: the bracket's left end is the
    # root, not a point one scan step beyond it
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
    # the chord defect from one radius call on [theta, theta + pi] against
    # the two-call oracle: the same result, bit for bit, for the CLI's
    # demos and a seeded polygon, from half the radius calls of the defect
    from centroid_sections import cli
    if name == "polygon":
        body = polygon_body(random_convex_hull(np.random.default_rng(SEED)))
    else:
        body = cli._DEMOS[name]()
    calls = {}
    radius = planar.PlanarBody.radius

    def counted_radius(self, theta):
        calls["radius"] += 1
        return radius(self, theta)

    def counted(defect):
        def wrapped(body, theta):
            calls["defect"] += 1
            return defect(body, theta)
        return wrapped

    monkeypatch.setattr(planar.PlanarBody, "radius", counted_radius)
    runs = {}
    for label, defect in (("one", planar._chord_defect),
                          ("two", chord_defect_two_calls)):
        monkeypatch.setattr(planar, "_chord_defect", counted(defect))
        calls.update(radius=0, defect=0)
        runs[label] = repr(bisected_chords(body)), dict(calls)
    (got, one), (want, two) = runs["one"], runs["two"]
    assert got == want
    assert one["defect"] == two["defect"] > 0
    elsewhere = one["radius"] - one["defect"]
    assert two["radius"] - elsewhere == 2 * one["defect"]


def test_polygon_radius_same_bits_however_batched():
    # rays through a vertex, and a float either side of it, that the
    # half-open edge rule can miss: the relaxed rule applies to the rays
    # it missed alone, so a direction's radius does not depend on the
    # others in the call (in three of these 100 polygons a missed ray
    # used to move the radii of others)
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
