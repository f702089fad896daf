//! The on-device integration kernel (semi-implicit Euler).
//!
//! The paper's Gravit port keeps the particle state on the device across a
//! frame; after the force kernel fills the acceleration buffer, this kernel
//! advances it in place:
//!
//! ```text
//! v += a·dt;  p += v·dt      (one thread per particle, no loops, no tiles)
//! ```
//!
//! Unlike the force kernel — whose inner loop reads only the *hot* fields —
//! integration touches the **cold** velocity group too, which is why the
//! layouts keep velocities at all. For the vector layouts the kernel must
//! load and re-store the ride-along words (the mass in `AoaS`'s first half,
//! the padding elements) unchanged; the tests pin that masses survive.
//!
//! Operation order matches `nbody::integrator::step_euler` exactly
//! (`v + a·dt` as mul-then-add, then `p + v'·dt`), so device-resident
//! stepping is bit-identical to host stepping.

use gpu_sim::ir::{Kernel, KernelBuilder, MemSpace, Operand, Reg};
use particle_layouts::{Layout, Particle};

/// Build the Euler integration kernel for a layout.
///
/// Parameters, in order: the layout's buffers, then `acc` (float4 per
/// particle, as written by the force kernel) and `dt` (f32 bits).
pub fn build_integrate_kernel(layout: Layout) -> Kernel {
    let plan = layout.read_plan_posvel();
    let n_buffers = layout.buffers().len();
    let mut b = KernelBuilder::new(format!("integrate_{}", layout.label()));
    let bufs: Vec<Reg> = (0..n_buffers).map(|_| b.param()).collect();
    let acc = b.param();
    let dt_param = b.param();

    let i = b.global_thread_index();
    let dt = b.mov(dt_param.into());

    // Load everything the layout forces us to touch, remembering addresses.
    let mut loaded: Vec<(Reg, Vec<Reg>, u32)> = Vec::new(); // (addr, words, offset)
    for r in &plan.reads {
        let addr = b.mad_u(i.into(), Operand::ImmU(r.stride), bufs[r.buffer].into());
        let words = b.ld(MemSpace::Global, addr, r.offset, r.words as usize);
        loaded.push((addr, words, r.offset));
    }
    let aaddr = b.mad_u(i.into(), Operand::ImmU(16), acc.into());
    let a = b.ld(MemSpace::Global, aaddr, 0, 4);

    // v' = v + a·dt ; p' = p + v'·dt — written back into the loaded word
    // registers so the stores below round-trip the ride-along words.
    let reg = |word: usize| {
        let (read, lane) = plan.lane(word);
        loaded[read].1[lane]
    };
    for (k, ak) in a.iter().enumerate().take(3) {
        let v = reg(Particle::VEL[k]);
        b.fmad_into(v, (*ak).into(), dt.into(), v.into());
        let p = reg(Particle::POS[k]);
        b.fmad_into(p, v.into(), dt.into(), p.into());
    }

    for (addr, words, offset) in loaded {
        b.st(
            MemSpace::Global,
            addr,
            offset,
            words.iter().map(|w| (*w).into()).collect(),
        );
    }
    b.finish()
}

/// Assemble the launch parameters for an integration kernel.
pub fn integrate_params(
    img: &particle_layouts::DeviceImage,
    acc: gpu_sim::mem::DevicePtr,
    dt: f32,
) -> Vec<u32> {
    let mut p = img.base_params();
    p.push(acc.0 as u32);
    p.push(dt.to_bits());
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::exec::functional::run_grid;
    use gpu_sim::ir::count::dynamic_instructions;
    use gpu_sim::mem::GlobalMemory;
    use nbody::integrator::step_euler;
    use nbody::model::Bodies;
    use nbody::spawn;
    use particle_layouts::device::alloc_accel_out;
    use particle_layouts::{DeviceImage, Particle};
    use simcore::Vec3;

    fn to_particles(b: &Bodies) -> Vec<Particle> {
        (0..b.len())
            .map(|i| Particle {
                pos: b.pos[i],
                vel: b.vel[i],
                mass: b.mass[i],
            })
            .collect()
    }

    fn device_euler(layout: Layout, bodies: &Bodies, accels: &[Vec3], dt: f32) -> Vec<Particle> {
        let block = 128u32;
        let k = build_integrate_kernel(layout);
        let mut gmem = GlobalMemory::new(32 << 20);
        let img = DeviceImage::upload(&mut gmem, layout, &to_particles(bodies), block).unwrap();
        let acc = alloc_accel_out(&mut gmem, img.padded_n).unwrap();
        for (i, a) in accels.iter().enumerate() {
            gmem.store_f32(acc.0 + 16 * i as u64, a.x).unwrap();
            gmem.store_f32(acc.0 + 16 * i as u64 + 4, a.y).unwrap();
            gmem.store_f32(acc.0 + 16 * i as u64 + 8, a.z).unwrap();
        }
        let params = integrate_params(&img, acc, dt);
        run_grid(&k, img.padded_n / block, block, &params, &mut gmem).unwrap();
        img.read_all(&gmem).unwrap()
    }

    #[test]
    fn device_euler_matches_host_bitwise_for_every_layout() {
        let mut bodies = spawn::disk_galaxy(200, 4.0, 1.0, 1.0, 13);
        let accels: Vec<Vec3> = (0..bodies.len())
            .map(|i| Vec3::new(i as f32 * 0.01, -0.5, 0.25))
            .collect();
        let dt = 0.01f32;
        let before = bodies.clone();
        step_euler(&mut bodies, &accels, dt, None);
        for layout in Layout::ALL {
            let dev = device_euler(layout, &before, &accels, dt);
            for (i, d) in dev.iter().enumerate() {
                assert_eq!(d.pos, bodies.pos[i], "{layout}: body {i} pos");
                assert_eq!(d.vel, bodies.vel[i], "{layout}: body {i} vel");
            }
        }
    }

    #[test]
    fn masses_survive_integration_in_every_layout() {
        let bodies = spawn::uniform_ball(100, 2.0, 3.0, 4);
        let accels = vec![Vec3::new(1.0, 2.0, 3.0); 100];
        for layout in Layout::ALL {
            let dev = device_euler(layout, &bodies, &accels, 0.02);
            for (i, d) in dev.iter().enumerate() {
                assert_eq!(d.mass, bodies.mass[i], "{layout}: body {i} mass clobbered");
            }
        }
    }

    #[test]
    fn zero_dt_is_identity() {
        let bodies = spawn::plummer(64, 1.0, 1.0, 5);
        let accels = vec![Vec3::new(9.0, 9.0, 9.0); 64];
        let dev = device_euler(Layout::SoAoaS, &bodies, &accels, 0.0);
        for (i, d) in dev.iter().enumerate() {
            assert_eq!(d.pos, bodies.pos[i]);
            assert_eq!(d.vel, bodies.vel[i]);
        }
    }

    #[test]
    fn integration_kernel_is_loop_free_and_small() {
        for layout in Layout::ALL {
            let k = build_integrate_kernel(layout);
            assert!(
                gpu_sim::ir::count::inner_loop_profile(&k).is_none(),
                "{layout}: no loops"
            );
            let params = vec![0u32; k.n_params as usize];
            let d = dynamic_instructions(&k, &params).unwrap();
            assert!(
                d < 40,
                "{layout}: {d} instructions — integration must be O(1)/thread"
            );
        }
    }
}
