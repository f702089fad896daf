//! Serializing particle sets into simulated device memory.
//!
//! [`DeviceImage::upload`] lays a particle slice out in [`gpu_sim`] global
//! memory under any [`Layout`], padding the count up to a block multiple with
//! zero-mass sentinels (the GPU-Gems trick that removes the bounds check from
//! the kernel — see the layouts crate docs). [`download_accels`]
//! and friends read results back.
//!
//! All device accesses return [`gpu_sim::DeviceResult`]: allocator
//! exhaustion, out-of-bounds indices, and uninitialized readbacks surface as
//! typed [`gpu_sim::DeviceError`]s instead of panics.

use crate::host::Particle;
use crate::plan::Layout;
use gpu_sim::fault::{DeviceError, DeviceResult, FaultKind};
use gpu_sim::mem::{DevicePtr, GlobalMemory};

/// `n` rounded up to a multiple of `pad_to` (which must be positive). The
/// count is a u64 because padding a u32 count can pass `u32::MAX`.
pub fn padded_count(n: u32, pad_to: u32) -> u64 {
    u64::from(n).div_ceil(u64::from(pad_to)) * u64::from(pad_to)
}

/// A particle set resident in simulated device memory under some layout.
#[derive(Debug, Clone)]
pub struct DeviceImage {
    /// The layout used.
    pub layout: Layout,
    /// Real (unpadded) particle count.
    pub n: u32,
    /// Padded count (multiple of the pad unit, ≥ n; zero when `n` is zero).
    pub padded_n: u32,
    /// Base pointer of each buffer, in [`Layout::buffers`] order.
    pub buffers: Vec<DevicePtr>,
    /// Bytes uploaded (all buffers, padded).
    pub bytes: u64,
}

impl DeviceImage {
    /// Upload `particles` under `layout`, padding the count to a multiple of
    /// `pad_to` (typically the block size) with [`Particle::SENTINEL`].
    /// A record slot no word maps to (the aligned record's pad word, the
    /// cold `float4`'s fourth word) is stored as 0.0.
    ///
    /// An empty particle set is a valid no-op image: no buffers are
    /// allocated, `padded_n` is zero, and no kernel launch is needed.
    pub fn upload(
        gmem: &mut GlobalMemory,
        layout: Layout,
        particles: &[Particle],
        pad_to: u32,
    ) -> DeviceResult<DeviceImage> {
        if pad_to == 0 {
            return Err(DeviceError::new(FaultKind::BadConfig {
                reason: "pad unit must be positive".into(),
            }));
        }
        let n = particles.len() as u32;
        if n == 0 {
            return Ok(DeviceImage {
                layout,
                n: 0,
                padded_n: 0,
                buffers: Vec::new(),
                bytes: 0,
            });
        }
        let padded_n = u32::try_from(padded_count(n, pad_to)).map_err(|_| {
            DeviceError::new(FaultKind::BadConfig {
                reason: format!("{n} particles padded to a multiple of {pad_to} overflow u32"),
            })
        })?;
        let placement = layout.placement();
        let mut buffers = Vec::with_capacity(placement.buffers.len());
        let mut bytes = 0u64;
        for (b, buffer) in placement.buffers.iter().enumerate() {
            let stride = buffer.stride();
            let size = stride * u64::from(padded_n);
            let ptr = gmem.alloc(size)?;
            bytes += size;
            let record: Vec<Option<usize>> = placement.record(b).collect();
            for i in 0..padded_n as usize {
                let fields = particles.get(i).unwrap_or(&Particle::SENTINEL).fields();
                let at = ptr.0 + i as u64 * stride;
                for (slot, word) in record.iter().enumerate() {
                    let v = word.map_or(0.0, |w| fields[w]);
                    gmem.store_f32(at + 4 * slot as u64, v)?;
                }
            }
            buffers.push(ptr);
        }
        Ok(DeviceImage {
            layout,
            n,
            padded_n,
            buffers,
            bytes,
        })
    }

    /// The exact allocation sizes this upload will request, in allocation
    /// order — feed to [`GlobalMemory::footprint`] for an exact budget.
    pub fn alloc_sizes(layout: Layout, n: u32, pad_to: u32) -> Vec<u64> {
        if n == 0 || pad_to == 0 {
            return Vec::new();
        }
        let padded_n = padded_count(n, pad_to);
        layout
            .buffers()
            .iter()
            .map(|k| k.stride() * padded_n)
            .collect()
    }

    /// Read particle `i` back from the device image (for roundtrip checks).
    pub fn read_particle(&self, gmem: &GlobalMemory, i: u32) -> DeviceResult<Particle> {
        if i >= self.padded_n {
            return Err(DeviceError::new(FaultKind::OutOfBounds {
                space: gpu_sim::ir::MemSpace::Global,
                addr: i as u64,
                width: 1,
                limit: self.padded_n as u64,
                redzone: false,
            }));
        }
        let placement = self.layout.placement();
        let mut fields = [0.0; 7];
        for (b, base) in self.buffers.iter().enumerate() {
            let at = base.0 + u64::from(i) * placement.buffers[b].stride();
            for (slot, word) in placement.record(b).enumerate() {
                if let Some(w) = word {
                    fields[w] = gmem.load_f32(at + 4 * slot as u64)?;
                }
            }
        }
        Ok(Particle::from_fields(fields))
    }

    /// Read all real (unpadded) particles back.
    pub fn read_all(&self, gmem: &GlobalMemory) -> DeviceResult<Vec<Particle>> {
        (0..self.n).map(|i| self.read_particle(gmem, i)).collect()
    }

    /// Parameter values (buffer base addresses) to pass to a kernel.
    pub fn base_params(&self) -> Vec<u32> {
        self.buffers.iter().map(|p| p.0 as u32).collect()
    }

    /// Free this image's buffers (reverse allocation order, as the device's
    /// LIFO allocator requires). The image must be the most recent set of
    /// live allocations; chunked streaming relies on this to reuse the same
    /// region for every source chunk. The image is consumed — its pointers
    /// are dangling afterwards.
    pub fn free(self, gmem: &mut GlobalMemory) -> DeviceResult<()> {
        for ptr in self.buffers.into_iter().rev() {
            gmem.free(ptr)?;
        }
        Ok(())
    }
}

/// Allocate a zero-filled output buffer for per-particle `float4`
/// accelerations and return its pointer (the `cudaMalloc` + `cudaMemset`
/// idiom: output slots are legitimately read back even if a padded thread
/// never wrote them).
pub fn alloc_accel_out(gmem: &mut GlobalMemory, padded_n: u32) -> DeviceResult<DevicePtr> {
    gmem.alloc_zeroed(padded_n as u64 * 16)
}

/// Read back `n` accelerations from a `float4` output buffer.
pub fn download_accels(
    gmem: &GlobalMemory,
    out: DevicePtr,
    n: u32,
) -> DeviceResult<Vec<simcore::Vec3>> {
    (0..n as u64)
        .map(|i| {
            Ok(simcore::Vec3::new(
                gmem.load_f32(out.0 + 16 * i)?,
                gmem.load_f32(out.0 + 16 * i + 4)?,
                gmem.load_f32(out.0 + 16 * i + 8)?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Vec3;

    fn sample(n: usize) -> Vec<Particle> {
        (0..n)
            .map(|i| Particle {
                pos: Vec3::new(i as f32, 2.0 * i as f32, -(i as f32)),
                vel: Vec3::new(0.5, -0.5, i as f32),
                mass: 1.0 + i as f32,
            })
            .collect()
    }

    #[test]
    fn padded_counts_do_not_wrap() {
        assert_eq!(padded_count(0, 128), 0);
        assert_eq!(padded_count(200, 128), 256);
        assert_eq!(padded_count(u32::MAX, 128), 1 << 32);
        let strides: Vec<u64> = Layout::SoA
            .buffers()
            .iter()
            .map(|k| k.stride() << 32)
            .collect();
        assert_eq!(
            DeviceImage::alloc_sizes(Layout::SoA, u32::MAX, 128),
            strides
        );
    }

    #[test]
    fn roundtrip_every_layout() {
        for layout in Layout::ALL {
            let mut gmem = GlobalMemory::new(1 << 20);
            let ps = sample(100);
            let img = DeviceImage::upload(&mut gmem, layout, &ps, 128).unwrap();
            assert_eq!(img.n, 100);
            assert_eq!(img.padded_n, 128);
            assert_eq!(img.read_all(&gmem).unwrap(), ps, "{layout} roundtrip");
        }
    }

    #[test]
    fn padding_is_zero_mass() {
        let mut gmem = GlobalMemory::new(1 << 20);
        let img = DeviceImage::upload(&mut gmem, Layout::SoAoaS, &sample(5), 128).unwrap();
        for i in 5..128 {
            let p = img.read_particle(&gmem, i).unwrap();
            assert_eq!(p.mass, 0.0, "padding particle {i} must be massless");
            assert_eq!(p.pos, Vec3::ZERO);
        }
    }

    #[test]
    fn buffer_bases_are_vector_aligned() {
        for layout in Layout::ALL {
            let mut gmem = GlobalMemory::new(1 << 20);
            let img = DeviceImage::upload(&mut gmem, layout, &sample(64), 64).unwrap();
            for b in &img.buffers {
                assert_eq!(
                    b.0 % 128,
                    0,
                    "{layout}: cudaMalloc-grade alignment expected"
                );
            }
        }
    }

    #[test]
    fn uploaded_bytes_match_layout_footprint() {
        let mut gmem = GlobalMemory::new(1 << 20);
        let img = DeviceImage::upload(&mut gmem, Layout::AoaS, &sample(64), 64).unwrap();
        assert_eq!(img.bytes, 64 * 32);
        let mut gmem = GlobalMemory::new(1 << 20);
        let img = DeviceImage::upload(&mut gmem, Layout::Unopt, &sample(64), 64).unwrap();
        assert_eq!(img.bytes, 64 * 28);
        let mut gmem = GlobalMemory::new(1 << 20);
        let img = DeviceImage::upload(&mut gmem, Layout::SoA, &sample(64), 64).unwrap();
        assert_eq!(img.bytes, 64 * 28);
    }

    #[test]
    fn alloc_sizes_predict_allocator_state_exactly() {
        for layout in Layout::ALL {
            let sizes = DeviceImage::alloc_sizes(layout, 100, 128);
            let budget = GlobalMemory::footprint(&sizes);
            let mut gmem = GlobalMemory::new(budget);
            DeviceImage::upload(&mut gmem, layout, &sample(100), 128).unwrap();
            assert_eq!(
                gmem.allocated(),
                budget,
                "{layout}: footprint must be exact"
            );
        }
    }

    #[test]
    fn accel_out_roundtrip() {
        let mut gmem = GlobalMemory::new(1 << 16);
        let out = alloc_accel_out(&mut gmem, 64).unwrap();
        gmem.store_f32(out.0 + 16 * 3, 1.5).unwrap();
        gmem.store_f32(out.0 + 16 * 3 + 4, 2.5).unwrap();
        gmem.store_f32(out.0 + 16 * 3 + 8, 3.5).unwrap();
        let acc = download_accels(&gmem, out, 64).unwrap();
        assert_eq!(acc[3], Vec3::new(1.5, 2.5, 3.5));
        assert_eq!(acc[0], Vec3::ZERO);
    }

    #[test]
    fn empty_upload_is_a_valid_noop_image() {
        let mut gmem = GlobalMemory::new(1 << 16);
        let img = DeviceImage::upload(&mut gmem, Layout::SoA, &[], 128).unwrap();
        assert_eq!(img.n, 0);
        assert_eq!(img.padded_n, 0);
        assert!(img.buffers.is_empty());
        assert_eq!(img.bytes, 0);
        assert_eq!(gmem.allocated(), 0, "no device memory consumed");
        assert!(img.read_all(&gmem).unwrap().is_empty());
    }

    #[test]
    fn zero_pad_unit_is_a_typed_error() {
        let mut gmem = GlobalMemory::new(1 << 16);
        let err = DeviceImage::upload(&mut gmem, Layout::SoA, &sample(4), 0).unwrap_err();
        assert!(matches!(err.kind, FaultKind::BadConfig { .. }));
    }

    #[test]
    fn free_rewinds_the_allocator_for_every_layout() {
        for layout in Layout::ALL {
            let mut gmem = GlobalMemory::new(1 << 20);
            let before = gmem.allocated();
            let img = DeviceImage::upload(&mut gmem, layout, &sample(100), 128).unwrap();
            assert!(gmem.allocated() > before);
            img.free(&mut gmem).unwrap();
            assert_eq!(gmem.allocated(), before, "{layout}: free must rewind fully");
            // The region is reusable: a second upload lands identically.
            let again = DeviceImage::upload(&mut gmem, layout, &sample(100), 128).unwrap();
            assert_eq!(again.read_all(&gmem).unwrap(), sample(100));
        }
    }

    #[test]
    fn oversized_upload_is_out_of_memory_not_a_panic() {
        let mut gmem = GlobalMemory::new(1 << 10); // far too small for 1000 particles
        let err = DeviceImage::upload(&mut gmem, Layout::AoS, &sample(1000), 128).unwrap_err();
        assert!(matches!(err.kind, FaultKind::OutOfMemory { .. }));
    }
}
