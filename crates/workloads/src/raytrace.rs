//! Whitted-style ray tracing of animation frames (paper §2.1 and §4.1).
//!
//! The usage example of the paper renders a rotation animation around a 3D
//! scene: each input is a camera angle, each output is the pixel buffer of
//! one frame, and the frames are reassembled in order downstream. This module
//! implements a small recursive ray tracer (spheres, a ground plane, a point
//! light, hard shadows and specular reflections) entirely from scratch.
//!
//! A frame skips every sphere test that a per-frame bound proves is a miss:
//! a primary ray tests only the spheres near both its image row's and its
//! image column's plane, a shadow ray only the spheres whose light cone it
//! lies in, and a pixel that can hit neither a sphere nor the floor is the
//! background without a ray. Every byte is the one testing every sphere
//! gives; [`Scene::render`] holds the argument.

/// A three-component vector used for points, directions and colours.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl std::ops::Add for Vec3 {
    type Output = Vec3;

    fn add(self, other: Vec3) -> Vec3 {
        Vec3::new(self.x + other.x, self.y + other.y, self.z + other.z)
    }
}

impl std::ops::Sub for Vec3 {
    type Output = Vec3;

    fn sub(self, other: Vec3) -> Vec3 {
        Vec3::new(self.x - other.x, self.y - other.y, self.z - other.z)
    }
}

/// Component-wise multiplication (used for colours).
impl std::ops::Mul for Vec3 {
    type Output = Vec3;

    fn mul(self, other: Vec3) -> Vec3 {
        Vec3::new(self.x * other.x, self.y * other.y, self.z * other.z)
    }
}

impl Vec3 {
    /// Creates a vector.
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Multiplication by a scalar.
    pub fn scale(self, factor: f64) -> Vec3 {
        Vec3::new(self.x * factor, self.y * factor, self.z * factor)
    }

    /// Dot product.
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Euclidean length.
    pub fn length(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// The vector scaled to unit length.
    pub fn normalized(self) -> Vec3 {
        let len = self.length();
        if len == 0.0 {
            self
        } else {
            self.scale(1.0 / len)
        }
    }

    /// Reflection of `self` around the normal `n`.
    pub fn reflect(self, n: Vec3) -> Vec3 {
        self - n.scale(2.0 * self.dot(n))
    }

    fn cross(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }
}

/// A ray with an origin and a unit direction.
#[derive(Debug, Clone, Copy)]
pub struct Ray {
    /// Starting point of the ray.
    pub origin: Vec3,
    /// Unit direction of the ray.
    pub direction: Vec3,
}

/// A sphere with Phong-style material parameters.
#[derive(Debug, Clone, Copy)]
pub struct Sphere {
    /// Centre of the sphere.
    pub center: Vec3,
    /// Radius of the sphere.
    pub radius: f64,
    /// Diffuse colour.
    pub color: Vec3,
    /// Fraction of light reflected specularly (0 = matte, 1 = mirror).
    pub reflectivity: f64,
}

impl Sphere {
    /// Distance along `ray` of the closest intersection, if any.
    pub fn intersect(&self, ray: &Ray) -> Option<f64> {
        let oc = ray.origin - self.center;
        let b = 2.0 * oc.dot(ray.direction);
        let c = oc.dot(oc) - self.radius * self.radius;
        solve(b, c)
    }
}

/// The nearest root beyond `1e-6` of `t² + b·t + c = 0`: where a unit-length
/// ray meets a sphere, with `b = 2·oc·d` and `c = oc·oc − r²`.
fn solve(b: f64, c: f64) -> Option<f64> {
    let discriminant = b * b - 4.0 * c;
    if discriminant < 0.0 {
        return None;
    }
    let sqrt_d = discriminant.sqrt();
    let t1 = (-b - sqrt_d) / 2.0;
    let t2 = (-b + sqrt_d) / 2.0;
    let t = if t1 > 1e-6 { t1 } else { t2 };
    (t > 1e-6).then_some(t)
}

/// `v.floor()` without the call into libm: truncate, then step down where
/// truncation rounded up (a negative non-integer). Beyond 2^53 every `f64`
/// is an integer already, and `as i64` would saturate.
fn floor(v: f64) -> f64 {
    if v.abs() < 9.0e15 {
        let truncated = v as i64 as f64;
        if truncated > v {
            truncated - 1.0
        } else {
            truncated
        }
    } else {
        v.floor()
    }
}

/// One colour channel as a byte: `(channel.clamp(0.0, 1.0) * 255.0).round()`
/// without the call into libm. The remainder after truncation is exact, so
/// comparing it with one half rounds exactly as `round` does (half up).
fn quantise(channel: f64) -> u8 {
    let scaled = channel.clamp(0.0, 1.0) * 255.0;
    let truncated = scaled as u8;
    truncated + u8::from(scaled - f64::from(truncated) >= 0.5)
}

/// One sphere's terms for one frame (see [`Scene::render`]). For primary
/// rays: `oc = camera − C`, `c = oc·oc − r²`, and `bound = |r| + m`, the
/// distance within which its centre must pass a row's or a column's plane.
/// For shadow rays: the axis `w = (L − C)/|L − C|` of its light cone and
/// the cosine bound `k` outside which a shadow ray misses it (`k = 0` never
/// culls).
struct SphereTerms {
    oc: Vec3,
    c: f64,
    bound: f64,
    w: Vec3,
    k: f64,
}

/// What a frame computes once: every sphere's terms, and how far from the
/// light a shadow ray may start and still cull.
struct Frame {
    spheres: Vec<SphereTerms>,
    reach: f64,
}

impl Frame {
    fn new(scene: &Scene, camera: Vec3) -> Self {
        let to_light = |sphere: &Sphere| scene.light - sphere.center;
        let farthest = scene.spheres.iter().map(|s| to_light(s).length()).fold(0.0, f64::max);
        let reach = 4.0 * (1.0 + scene.light.length() + farthest);
        let spheres = scene
            .spheres
            .iter()
            .map(|sphere| {
                let oc = camera - sphere.center;
                let (to_light, r) = (to_light(sphere), sphere.radius.abs());
                let distance = to_light.length();
                let ratio = (r + 1e-4 + 1e-6 * (1.0 + distance + reach)) / distance;
                SphereTerms {
                    oc,
                    c: oc.dot(oc) - sphere.radius * sphere.radius,
                    bound: r + 1e-6 * (1.0 + oc.length()),
                    w: to_light.scale(1.0 / distance),
                    k: if ratio < 1.0 { (1.0 - ratio * ratio).sqrt() } else { 0.0 },
                }
            })
            .collect();
        Self { spheres, reach }
    }

    /// Per sphere, whether its centre passes within `bound` of the plane
    /// through the camera with `normal`. A zero or NaN normal keeps every
    /// sphere.
    fn near_plane(&self, normal: Vec3) -> impl Iterator<Item = bool> + '_ {
        let length = normal.length();
        self.spheres.iter().map(move |terms| {
            let far = terms.oc.dot(normal).abs() > terms.bound * length;
            !far
        })
    }
}

/// The scene of the paper's usage example: a handful of spheres on a plane,
/// lit by a single point light, rendered from a camera rotating around it.
#[derive(Debug, Clone)]
pub struct Scene {
    /// The spheres of the scene.
    pub spheres: Vec<Sphere>,
    /// Height of the ground plane (y = `floor_y`).
    pub floor_y: f64,
    /// Position of the point light.
    pub light: Vec3,
    /// Background colour.
    pub background: Vec3,
    /// Maximum recursion depth for reflections.
    pub max_depth: u32,
}

impl Default for Scene {
    fn default() -> Self {
        Self {
            spheres: vec![
                Sphere {
                    center: Vec3::new(0.0, 1.0, 0.0),
                    radius: 1.0,
                    color: Vec3::new(0.9, 0.2, 0.2),
                    reflectivity: 0.4,
                },
                Sphere {
                    center: Vec3::new(2.0, 0.6, 1.0),
                    radius: 0.6,
                    color: Vec3::new(0.2, 0.8, 0.3),
                    reflectivity: 0.2,
                },
                Sphere {
                    center: Vec3::new(-1.8, 0.8, -0.6),
                    radius: 0.8,
                    color: Vec3::new(0.2, 0.4, 0.9),
                    reflectivity: 0.6,
                },
            ],
            floor_y: 0.0,
            light: Vec3::new(5.0, 8.0, -3.0),
            background: Vec3::new(0.05, 0.07, 0.12),
            max_depth: 3,
        }
    }
}

impl Scene {
    fn trace(&self, frame: &Frame, ray: &Ray, depth: u32) -> Vec3 {
        let closest = self.closest(self.spheres.iter().map(|sphere| sphere.intersect(ray)));
        self.finish(frame, ray, depth, closest)
    }

    /// The nearest sphere hit, given each sphere's hit distance in order.
    fn closest(&self, hits: impl Iterator<Item = Option<f64>>) -> Option<(f64, &Sphere)> {
        let mut closest: Option<(f64, &Sphere)> = None;
        for (sphere, hit) in self.spheres.iter().zip(hits) {
            if let Some(t) = hit {
                if closest.map(|(best, _)| t < best).unwrap_or(true) {
                    closest = Some((t, sphere));
                }
            }
        }
        closest
    }

    /// The colour `ray` sees, given its `closest` sphere hit: the floor,
    /// shading and reflections. Inlined into `render`'s pixel loop, where
    /// the call cost about a seventh of the frame.
    #[inline(always)]
    fn finish(
        &self,
        frame: &Frame,
        ray: &Ray,
        depth: u32,
        closest: Option<(f64, &Sphere)>,
    ) -> Vec3 {
        // Ground plane intersection.
        let floor_t = if ray.direction.y < -1e-6 {
            Some((self.floor_y - ray.origin.y) / ray.direction.y)
        } else {
            None
        };

        match (closest, floor_t) {
            (Some((t, sphere)), floor) if floor.map(|ft| t < ft).unwrap_or(true) => {
                let hit = ray.origin + ray.direction.scale(t);
                let normal = (hit - sphere.center).normalized();
                let mut color = self.shade(frame, hit, normal, sphere.color);
                if sphere.reflectivity > 0.0 && depth < self.max_depth {
                    let reflected = Ray {
                        origin: hit + normal.scale(1e-4),
                        direction: ray.direction.reflect(normal).normalized(),
                    };
                    let bounce = self.trace(frame, &reflected, depth + 1);
                    color =
                        color.scale(1.0 - sphere.reflectivity) + bounce.scale(sphere.reflectivity);
                }
                color
            }
            (_, Some(t)) if t > 1e-6 => {
                let hit = ray.origin + ray.direction.scale(t);
                // Checkerboard floor.
                let checker = ((floor(hit.x) + floor(hit.z)) as i64).rem_euclid(2) == 0;
                let base =
                    if checker { Vec3::new(0.85, 0.85, 0.85) } else { Vec3::new(0.25, 0.25, 0.25) };
                self.shade(frame, hit, Vec3::new(0.0, 1.0, 0.0), base)
            }
            _ => self.background,
        }
    }

    /// The colour a hit point with `normal` and colour `base` shows: ambient
    /// light, plus diffuse light unless a sphere shadows it. With the cone
    /// test the inliner stopped inlining it into `finish`, which made the
    /// frame a fifth slower than inlining does.
    #[inline(always)]
    fn shade(&self, frame: &Frame, hit: Vec3, normal: Vec3, base: Vec3) -> Vec3 {
        let to_light = self.light - hit;
        // `to_light.normalized()`, sharing its square root with `max_t`.
        let max_t = to_light.length();
        let light_dir = if max_t == 0.0 { to_light } else { to_light.scale(1.0 / max_t) };
        // Hard shadow: any sphere between the hit point and the light, but
        // for those whose light cone the ray is outside of.
        let shadow_ray = Ray { origin: hit + normal.scale(1e-4), direction: light_dir };
        let near = max_t <= frame.reach;
        let in_shadow = self.spheres.iter().zip(&frame.spheres).any(|(sphere, terms)| {
            let missed = near && light_dir.dot(terms.w).abs() < terms.k;
            !missed && sphere.intersect(&shadow_ray).is_some_and(|t| t < max_t)
        });
        let ambient = 0.12;
        let diffuse = if in_shadow { 0.0 } else { normal.dot(light_dir).max(0.0) };
        base.scale(ambient + 0.88 * diffuse)
    }

    /// Renders one frame of the rotation animation: the camera orbits the
    /// origin at the given `angle` (radians) and looks at the scene centre.
    ///
    /// The output is an RGB byte buffer of `width * height * 3` bytes, rows
    /// from top to bottom.
    ///
    /// Every primary ray starts at the camera, so each sphere's `oc` and `c`
    /// are computed once per frame, `forward + right·ndc_x` once per column
    /// and `up·ndc_y` once per row, by the expressions a per-pixel trace
    /// evaluates; `Vec3` sums associate left and Rust fuses no multiply-add,
    /// so every pixel is bit-identical to tracing it alone.
    ///
    /// Three culls skip sphere tests that cannot hit, computed once per
    /// frame:
    /// - **Row and column planes.** The primary rays of an image row lie in
    ///   the plane through the camera with normal `(forward + row) × right`,
    ///   those of a column in the one with normal `column × up`. A pixel
    ///   solves only for the spheres whose centre is within `|r| + m` of
    ///   both its planes. A camera inside a sphere is within `r` of every
    ///   plane, and a zero normal keeps every sphere.
    /// - **Light cones.** A shadow ray runs along `light_dir` through a
    ///   point within `1e-4` (the origin's offset along the normal) of the
    ///   light `L`, so it misses sphere `C` if `|light_dir · w| < k`, with
    ///   `w = (L − C)/|L − C|` and `k = √(1 − ((|r| + 1e-4 + m)/|L − C|)²)`.
    ///   A sphere with `|r| + 1e-4 + m ≥ |L − C|` is always tested, and so
    ///   is every sphere for a ray starting farther than `reach` from the
    ///   light.
    /// - **Sky.** If `v = column + row` has `v.y ≥ 0` (so the normalised
    ///   direction has `y ≥ 0`, `-0.0` included, and cannot meet the floor)
    ///   and no sphere is near both planes, the pixel is the background,
    ///   quantised once per frame.
    ///
    /// **Why a skipped test is a miss.** Each cull proves that the sphere's
    /// centre is at least `r + m` from the ray's line, with
    /// `m = 1e-6·(1 + A)` and `A` a bound on the `|oc|` of every ray the cull
    /// skips: `|C − camera|` for primary rays, and `|L − C| + reach` for
    /// shadow rays, which cull only when they start within
    /// `max_t + 1e-4 ≤ reach + 1e-4` of the light. The f64 rounding between
    /// the computed ray and that line (a direction off its plane, a shadow
    /// origin's world coordinates with `reach ≥ 4·|L|`, the tests' own
    /// arithmetic) is about `1e-15·(1 + A)`, far inside `m`. For a skipped
    /// sphere the exact `b² − 4c = 4(r² − dist²)` is then at most
    /// `−4m² = −4e-12·(1 + A)²`, while the rounding of the computed
    /// discriminant is about `1e-14·|oc|² ≤ 1e-14·(1 + A)²`; so the computed
    /// `solve`/`intersect` returns `None` too, and `t < max_t` and
    /// `t > 1e-6` only remove hits. `reach = 4·(1 + |L| + max |L − C|)`
    /// keeps `m` a few millionths of the scene's extent.
    pub fn render(&self, angle: f64, width: usize, height: usize) -> Vec<u8> {
        let distance = 6.0;
        let camera = Vec3::new(distance * angle.cos(), 2.2, distance * angle.sin());
        let target = Vec3::new(0.0, 0.8, 0.0);
        let forward = (target - camera).normalized();
        let right = Vec3::new(forward.z, 0.0, -forward.x).normalized();
        let up = right.cross(forward);
        let fov_scale = (55.0f64.to_radians() / 2.0).tan();
        let aspect = width as f64 / height as f64;

        let frame = Frame::new(self, camera);
        let columns: Vec<Vec3> = (0..width)
            .map(|x| {
                let ndc_x = (2.0 * (x as f64 + 0.5) / width as f64 - 1.0) * fov_scale * aspect;
                forward + right.scale(ndc_x)
            })
            .collect();
        let n = frame.spheres.len();
        let mut columns_near = Vec::with_capacity(width * n);
        for &column in &columns {
            columns_near.extend(frame.near_plane(column.cross(up)));
        }
        let mut row_near = Vec::with_capacity(n);
        let sky = [self.background.x, self.background.y, self.background.z].map(quantise);
        let mut pixels = Vec::with_capacity(width * height * 3);
        for y in 0..height {
            let ndc_y = (1.0 - 2.0 * (y as f64 + 0.5) / height as f64) * fov_scale;
            let row = up.scale(ndc_y);
            row_near.clear();
            row_near.extend(frame.near_plane((forward + row).cross(right)));
            for (x, &column) in columns.iter().enumerate() {
                let tested =
                    row_near.iter().zip(&columns_near[x * n..][..n]).map(|(&a, &b)| a && b);
                let v = column + row;
                if v.y >= 0.0 && !tested.clone().any(|t| t) {
                    pixels.extend_from_slice(&sky);
                    continue;
                }
                let direction = v.normalized();
                let hits = frame.spheres.iter().zip(tested);
                let closest = self.closest(hits.map(|(terms, t)| {
                    t.then(|| solve(2.0 * terms.oc.dot(direction), terms.c)).flatten()
                }));
                let color = self.finish(&frame, &Ray { origin: camera, direction }, 0, closest);
                for channel in [color.x, color.y, color.z] {
                    pixels.push(quantise(channel));
                }
            }
        }
        pixels
    }
}

/// Generates the camera angles of a full-turn animation with `frames` frames,
/// the input stream of the usage example (`generate-angles.js`).
pub fn animation_angles(frames: usize) -> Vec<f64> {
    (0..frames).map(|i| animation_angle(i, frames)).collect()
}

/// The camera angle of frame `i` of a full-turn animation with `frames`
/// frames (zero frames counting as one).
pub(crate) fn animation_angle(i: usize, frames: usize) -> f64 {
    i as f64 * std::f64::consts::TAU / frames.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_algebra() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.length(), 5.0);
        assert!((v.normalized().length() - 1.0).abs() < 1e-12);
        assert_eq!(v + Vec3::new(1.0, 1.0, 1.0), Vec3::new(4.0, 5.0, 1.0));
        assert_eq!(v - v, Vec3::default());
        assert_eq!(v.scale(2.0), Vec3::new(6.0, 8.0, 0.0));
        assert_eq!(v.dot(Vec3::new(1.0, 0.0, 0.0)), 3.0);
        assert_eq!(
            Vec3::new(1.0, -1.0, 0.0).reflect(Vec3::new(0.0, 1.0, 0.0)),
            Vec3::new(1.0, 1.0, 0.0)
        );
        assert_eq!(Vec3::default().normalized(), Vec3::default());
    }

    #[test]
    fn sphere_intersection() {
        let sphere = Sphere {
            center: Vec3::new(0.0, 0.0, 5.0),
            radius: 1.0,
            color: Vec3::new(1.0, 0.0, 0.0),
            reflectivity: 0.0,
        };
        let hit = sphere
            .intersect(&Ray { origin: Vec3::default(), direction: Vec3::new(0.0, 0.0, 1.0) })
            .unwrap();
        assert!((hit - 4.0).abs() < 1e-9);
        assert!(sphere
            .intersect(&Ray { origin: Vec3::default(), direction: Vec3::new(0.0, 1.0, 0.0) })
            .is_none());
        // A ray starting inside the sphere hits the far side.
        let inside = sphere
            .intersect(&Ray {
                origin: Vec3::new(0.0, 0.0, 5.0),
                direction: Vec3::new(0.0, 0.0, 1.0),
            })
            .unwrap();
        assert!((inside - 1.0).abs() < 1e-9);
    }

    #[test]
    fn render_produces_correct_buffer_size() {
        let scene = Scene::default();
        let frame = scene.render(0.3, 32, 24);
        assert_eq!(frame.len(), 32 * 24 * 3);
    }

    #[test]
    fn rendering_is_deterministic() {
        let scene = Scene::default();
        assert_eq!(scene.render(1.0, 16, 16), scene.render(1.0, 16, 16));
    }

    /// Pins every pixel of the benchmark's frame size over the default
    /// animation: a change to the arithmetic of `render` must leave the
    /// frames bit-identical (FNV-1a over all sixty frames, in order).
    #[test]
    fn default_animation_frames_are_pinned() {
        let scene = Scene::default();
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for angle in animation_angles(60) {
            for byte in scene.render(angle, 96, 72) {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(digest, 0x2761_346e_b09c_c760, "{digest:#018x}");
    }

    /// `trace`, `finish` and `shade` as they were before the culls: every
    /// ray tests every sphere. The reference the culled frames must match
    /// byte for byte.
    impl Scene {
        fn trace_every(&self, ray: &Ray, depth: u32) -> Vec3 {
            let closest = self.closest(self.spheres.iter().map(|sphere| sphere.intersect(ray)));
            self.finish_every(ray, depth, closest)
        }

        fn finish_every(&self, ray: &Ray, depth: u32, closest: Option<(f64, &Sphere)>) -> Vec3 {
            // Ground plane intersection.
            let floor_t = if ray.direction.y < -1e-6 {
                Some((self.floor_y - ray.origin.y) / ray.direction.y)
            } else {
                None
            };

            match (closest, floor_t) {
                (Some((t, sphere)), floor) if floor.map(|ft| t < ft).unwrap_or(true) => {
                    let hit = ray.origin + ray.direction.scale(t);
                    let normal = (hit - sphere.center).normalized();
                    let mut color = self.shade_every(hit, normal, sphere.color);
                    if sphere.reflectivity > 0.0 && depth < self.max_depth {
                        let reflected = Ray {
                            origin: hit + normal.scale(1e-4),
                            direction: ray.direction.reflect(normal).normalized(),
                        };
                        let bounce = self.trace_every(&reflected, depth + 1);
                        color = color.scale(1.0 - sphere.reflectivity)
                            + bounce.scale(sphere.reflectivity);
                    }
                    color
                }
                (_, Some(t)) if t > 1e-6 => {
                    let hit = ray.origin + ray.direction.scale(t);
                    // Checkerboard floor.
                    let checker = ((floor(hit.x) + floor(hit.z)) as i64).rem_euclid(2) == 0;
                    let base = if checker {
                        Vec3::new(0.85, 0.85, 0.85)
                    } else {
                        Vec3::new(0.25, 0.25, 0.25)
                    };
                    self.shade_every(hit, Vec3::new(0.0, 1.0, 0.0), base)
                }
                _ => self.background,
            }
        }

        fn shade_every(&self, hit: Vec3, normal: Vec3, base: Vec3) -> Vec3 {
            let to_light = self.light - hit;
            // `to_light.normalized()`, sharing its square root with `max_t`.
            let max_t = to_light.length();
            let light_dir = if max_t == 0.0 { to_light } else { to_light.scale(1.0 / max_t) };
            // Hard shadow: any sphere between the hit point and the light.
            let shadow_ray = Ray { origin: hit + normal.scale(1e-4), direction: light_dir };
            let in_shadow =
                self.spheres.iter().filter_map(|s| s.intersect(&shadow_ray)).any(|t| t < max_t);
            let ambient = 0.12;
            let diffuse = if in_shadow { 0.0 } else { normal.dot(light_dir).max(0.0) };
            base.scale(ambient + 0.88 * diffuse)
        }
    }

    /// `render` as one unculled `trace_every` per pixel from the camera,
    /// with the camera arithmetic written out per pixel: the reference the
    /// hoisted and culled primary rays must match byte for byte.
    fn render_per_pixel(scene: &Scene, angle: f64, width: usize, height: usize) -> Vec<u8> {
        let distance = 6.0;
        let camera = Vec3::new(distance * angle.cos(), 2.2, distance * angle.sin());
        let target = Vec3::new(0.0, 0.8, 0.0);
        let forward = (target - camera).normalized();
        let right = Vec3::new(forward.z, 0.0, -forward.x).normalized();
        let up = Vec3::new(
            right.y * forward.z - right.z * forward.y,
            right.z * forward.x - right.x * forward.z,
            right.x * forward.y - right.y * forward.x,
        );
        let fov_scale = (55.0f64.to_radians() / 2.0).tan();
        let aspect = width as f64 / height as f64;

        let mut pixels = Vec::with_capacity(width * height * 3);
        for y in 0..height {
            for x in 0..width {
                let ndc_x = (2.0 * (x as f64 + 0.5) / width as f64 - 1.0) * fov_scale * aspect;
                let ndc_y = (1.0 - 2.0 * (y as f64 + 0.5) / height as f64) * fov_scale;
                let direction = (forward + right.scale(ndc_x) + up.scale(ndc_y)).normalized();
                let color = scene.trace_every(&Ray { origin: camera, direction }, 0);
                pixels.extend([color.x, color.y, color.z].map(quantise));
            }
        }
        pixels
    }

    /// Scenes the pinned default animation does not cover: a camera inside
    /// a sphere (primary rays take the far root, no plane culls), matte
    /// spheres, no reflections at all, no spheres, a light inside a sphere
    /// (no light cone), a sphere of radius 1e-3 (the margins dominate), a
    /// crowd of 70 spheres and a radius-4 sphere; and sizes with no pixel,
    /// one pixel, and other aspects.
    #[test]
    fn hoisted_primary_rays_match_a_per_pixel_trace() {
        let mut around_the_orbit = Scene::default();
        // The camera orbits at radius 6 and height 2.2: this sphere holds
        // the whole orbit.
        around_the_orbit.spheres.push(Sphere {
            center: Vec3::new(0.0, 2.2, 0.0),
            radius: 6.5,
            color: Vec3::new(0.6, 0.6, 0.3),
            reflectivity: 0.3,
        });
        let mut matte = Scene::default();
        for sphere in &mut matte.spheres {
            sphere.reflectivity = 0.0;
        }
        let flat = Scene { max_depth: 0, ..Scene::default() };
        let empty = Scene { spheres: Vec::new(), ..Scene::default() };
        let mut lamp = Scene::default();
        lamp.spheres.push(Sphere {
            center: Vec3::new(4.8, 7.9, -3.1),
            radius: 0.5,
            color: Vec3::new(1.0, 1.0, 0.8),
            reflectivity: 0.0,
        });
        let mut speck = Scene::default();
        speck.spheres.push(Sphere {
            center: Vec3::new(0.7, 1.9, -0.4),
            radius: 1e-3,
            color: Vec3::new(0.9, 0.9, 0.9),
            reflectivity: 0.5,
        });
        let crowd = Scene {
            spheres: (0..70)
                .map(|i| {
                    let (column, layer) = (f64::from(i % 10), f64::from(i / 10));
                    Sphere {
                        center: Vec3::new(
                            0.8 * column - 3.6,
                            0.25 + 0.45 * layer,
                            0.6 * layer - 1.8,
                        ),
                        radius: 0.15 + 0.02 * f64::from(i % 7),
                        color: Vec3::new(0.1 * column, 0.3, 0.1 * layer),
                        reflectivity: 0.1 * f64::from(i % 4),
                    }
                })
                .collect(),
            ..Scene::default()
        };
        let mut giant = Scene::default();
        giant.spheres.push(Sphere {
            center: Vec3::new(-1.0, 4.0, 2.5),
            radius: 4.0,
            color: Vec3::new(0.7, 0.5, 0.9),
            reflectivity: 0.7,
        });
        let scenes =
            [Scene::default(), around_the_orbit, matte, flat, empty, lamp, speck, crowd, giant];

        for (index, scene) in scenes.iter().enumerate() {
            for angle in [0.0, 0.9, 2.5, 4.4] {
                for (width, height) in [(0, 3), (3, 0), (1, 1), (7, 5), (96, 72), (160, 90)] {
                    assert_eq!(
                        scene.render(angle, width, height),
                        render_per_pixel(scene, angle, width, height),
                        "scene {index}, angle {angle}, {width}x{height}"
                    );
                }
            }
        }
        // The camera-inside scene does exercise the far root: its frame
        // differs from the same scene without the enclosing sphere.
        assert_ne!(scenes[1].render(0.9, 7, 5), scenes[0].render(0.9, 7, 5));
    }

    /// A shadow ray starts `1e-4` along the normal from its hit point, so
    /// it can clip a sphere that the line from the hit point to the light
    /// misses by less than `1e-4`: here by `3e-5`, while the origin's offset
    /// moves the ray `6e-5` towards the sphere. The light cone must keep
    /// that sphere.
    #[test]
    fn offset_shadow_ray_clips_a_sphere_the_light_line_misses() {
        let radius = 0.25;
        let scene = Scene {
            spheres: vec![Sphere {
                center: Vec3::new(radius + 3e-5, 1.0, 0.0),
                radius,
                color: Vec3::new(1.0, 1.0, 1.0),
                reflectivity: 0.0,
            }],
            light: Vec3::new(0.0, 2.0, 0.0),
            ..Scene::default()
        };
        let (hit, normal, base) =
            (Vec3::default(), Vec3::new(0.6, 0.8, 0.0), Vec3::new(1.0, 1.0, 1.0));
        let shaded = scene.shade(&Frame::new(&scene, Vec3::default()), hit, normal, base);
        assert_eq!(shaded, scene.shade_every(hit, normal, base));
        // In shadow: ambient light only.
        assert_eq!(shaded, base.scale(0.12));
    }

    /// A shadow ray from far away meets the discriminant's rounding: from
    /// 1.5e6 away, testing every sphere finds a shadow of a sphere whose line
    /// to the light misses it by 3e-4, more than its light cone's margin.
    /// Starting beyond `reach`, the ray tests every sphere, as the
    /// reference does.
    #[test]
    fn far_shadow_ray_tests_every_sphere() {
        let scene = Scene {
            spheres: vec![Sphere {
                center: Vec3::new(0.0, 10.0, 0.0),
                radius: 1.0,
                color: Vec3::new(1.0, 1.0, 1.0),
                reflectivity: 0.0,
            }],
            light: Vec3::new(0.0, 20.0, 0.0),
            ..Scene::default()
        };
        // From the light, past the sphere at 1 + 3e-4 from its centre.
        let sin = (1.0 + 3e-4) / 10.0;
        let away = Vec3::new(sin, -(1.0 - sin * sin).sqrt(), 0.0);
        let hit = scene.light + away.scale(1.497_270_995_215_445e6);
        let (normal, base) =
            (Vec3::new(-away.x, -away.y, 1.0).normalized(), Vec3::new(1.0, 1.0, 1.0));
        let shaded = scene.shade(&Frame::new(&scene, Vec3::default()), hit, normal, base);
        assert_eq!(shaded, scene.shade_every(hit, normal, base));
        // The rounded test finds the shadow that the exact line misses.
        assert_eq!(shaded, base.scale(0.12));
    }

    #[test]
    fn floor_and_quantise_agree_with_libm() {
        let edges = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.5, -2.5, 1e7 + 0.25, -1e7 - 0.25, 9.0e15];
        for v in edges.into_iter().chain([1e300, -1e300, f64::INFINITY, f64::NEG_INFINITY]) {
            assert_eq!(floor(v), v.floor(), "floor({v})");
        }
        assert!(floor(f64::NAN).is_nan());
        for step in 0..=2040 {
            // Every half and quarter step of the byte range, and just off them.
            for channel in [f64::from(step) / 2040.0, f64::from(step) / 2040.0 + 1e-12] {
                let libm = (channel.clamp(0.0, 1.0) * 255.0).round() as u8;
                assert_eq!(quantise(channel), libm, "quantise({channel})");
            }
        }
        assert_eq!((quantise(-3.0), quantise(7.0), quantise(f64::NAN)), (0, 255, 0));
    }

    #[test]
    fn different_angles_give_different_frames() {
        let scene = Scene::default();
        assert_ne!(scene.render(0.0, 24, 24), scene.render(1.5, 24, 24));
    }

    #[test]
    fn frame_is_not_uniform_background() {
        let scene = Scene::default();
        let frame = scene.render(0.7, 32, 32);
        let distinct: std::collections::HashSet<&[u8]> = frame.chunks(3).collect();
        assert!(distinct.len() > 10, "the image must contain objects, shadows and floor");
    }

    #[test]
    fn animation_angles_cover_a_full_turn() {
        let angles = animation_angles(8);
        assert_eq!(angles.len(), 8);
        assert_eq!(angles[0], 0.0);
        assert!(angles[7] < std::f64::consts::TAU);
        assert!(angles.windows(2).all(|w| w[1] > w[0]));
        assert!(animation_angles(0).is_empty());
    }
}
