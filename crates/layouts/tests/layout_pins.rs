//! Golden pins for every layout's placement: its buffer strides, its three
//! read plans and the exact device bytes an upload writes.
//!
//! A change to any layout's buffers, read order, vector widths, word slots,
//! padding words or sentinel records fails here:
//!
//! * an FNV-1a digest of the `Debug` of the buffer strides and of
//!   `read_plan_all`, `read_plan_posmass` and `read_plan_posvel`;
//! * an FNV-1a digest of every 32-bit word `DeviceImage::upload` writes for
//!   100 seeded particles padded to 128 (the 28 sentinels included), read
//!   back with `load_f32(..).to_bits()` over every buffer in order.

use gpu_sim::mem::GlobalMemory;
use particle_layouts::{DeviceImage, Layout, Particle};
use simcore::rng::{Rng64, Xoshiro256pp};
use simcore::Vec3;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of the layout's buffer strides and its three read plans.
fn plan_digest(layout: Layout) -> u64 {
    let strides: Vec<u64> = layout.buffers().iter().map(|b| b.stride()).collect();
    let text = format!(
        "{strides:?}\n{:?}\n{:?}\n{:?}",
        layout.read_plan_all(),
        layout.read_plan_posmass(),
        layout.read_plan_posvel()
    );
    fnv1a(FNV_OFFSET, text.as_bytes())
}

fn seeded_particles(n: usize) -> Vec<Particle> {
    let mut rng = Xoshiro256pp::seeded(27);
    (0..n)
        .map(|_| Particle {
            pos: Vec3::new(
                rng.range_f32(-50.0, 50.0),
                rng.range_f32(-50.0, 50.0),
                rng.range_f32(-50.0, 50.0),
            ),
            vel: Vec3::new(
                rng.range_f32(-2.0, 2.0),
                rng.range_f32(-2.0, 2.0),
                rng.range_f32(-2.0, 2.0),
            ),
            mass: rng.range_f32(0.5, 4.0),
        })
        .collect()
}

/// Digest of every word of every buffer of a 100-particle upload padded to
/// 128, together with the image's padded count and byte total.
fn image_digest(layout: Layout) -> u64 {
    let mut gmem = GlobalMemory::new(1 << 20);
    let img = DeviceImage::upload(&mut gmem, layout, &seeded_particles(100), 128).unwrap();
    let mut h = fnv1a(FNV_OFFSET, &u64::from(img.padded_n).to_le_bytes());
    h = fnv1a(h, &img.bytes.to_le_bytes());
    for (buffer, base) in layout.buffers().iter().zip(&img.buffers) {
        for addr in (base.0..base.0 + buffer.stride() * u64::from(img.padded_n)).step_by(4) {
            let bits = gmem.load_f32(addr).expect("every uploaded word is written");
            h = fnv1a(h, &bits.to_bits().to_le_bytes());
        }
    }
    h
}

/// `(layout, plan digest, image digest)`, in `Layout::ALL` order.
const PINS: [(Layout, u64, u64); 5] = [
    (Layout::Unopt, 0x94ae7113648040b7, 0x534cd6ddd2f68773),
    (Layout::AoS, 0xf44410d3b78eb0b4, 0x7482cda47c148b35),
    (Layout::SoA, 0x171693a1df5e01a3, 0x622c4949e0691507),
    (Layout::AoaS, 0xdad38669042fc9c3, 0x7482cda47c148b35),
    (Layout::SoAoaS, 0x3e3bc2b0db5548af, 0x3b8acc51eebab7d9),
];

#[test]
fn buffers_and_read_plans_are_pinned() {
    let actual = Layout::ALL.map(plan_digest);
    let expected = PINS.map(|(_, plans, _)| plans);
    assert_eq!(actual, expected, "plan digests moved: {:#018x?}", actual);
    assert_eq!(Layout::ALL, PINS.map(|(l, _, _)| l));
}

#[test]
fn uploaded_device_bytes_are_pinned() {
    let actual = Layout::ALL.map(image_digest);
    let expected = PINS.map(|(_, _, image)| image);
    assert_eq!(actual, expected, "image digests moved: {:#018x?}", actual);
}
