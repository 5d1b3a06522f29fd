//! Quickstart: protect a Java array from buggy native code with MTE4JNI.
//!
//! Run with `cargo run --example quickstart`.

use mte4jni_repro::prelude::*;

fn main() {
    // 1. Build a runtime with the MTE4JNI scheme in synchronous mode:
    //    16-byte-aligned PROT_MTE heap, two-tier tag tables, thread-level
    //    MTE enabling in the JNI trampolines.
    let vm = mte4jni::mte4jni_vm(TcfMode::Sync, TableConfig::default());
    let thread = vm.attach_thread("main");
    let env = vm.env(&thread);

    // 2. Java side: allocate an array and fill it.
    let prices = env.new_int_array_from(&[120, 250, 310, 99]).expect("alloc");

    // 3. Correct native code works exactly as before — it receives a
    //    *tagged* pointer and every access is hardware-checked. The
    //    `critical` guard pairs the Get/Release calls automatically.
    let total = env
        .call_native("sum_prices", NativeKind::Normal, |env| {
            let guard = env.critical(&prices)?;
            println!(
                "native code received pointer {} (tag {})",
                guard.ptr(),
                guard.ptr().tag()
            );
            let mem = guard.mem();
            let mut total = 0;
            for i in 0..guard.array().len() as isize {
                total += guard.array().read_i32(&mem, i)?;
            }
            guard.commit(ReleaseMode::CopyBack)?;
            Ok(total)
        })
        .expect("in-bounds native code runs unchanged");
    println!("sum computed by native code: {total}");
    assert_eq!(total, 779);

    // 4. Buggy native code is caught at the exact faulting access; the
    //    early return drops the guard, which releases the borrow for us.
    let err = env
        .call_native("buggy_write", NativeKind::Normal, |env| {
            let guard = env.critical(&prices)?;
            let mem = guard.mem();
            guard.array().write_i32(&mem, 7, 0)?; // index 7 of a 4-element array!
            guard.commit(ReleaseMode::CopyBack).map(drop)
        })
        .expect_err("the out-of-bounds write must fault");
    let fault = err.as_tag_check().expect("an MTE tag-check fault");
    println!("\ncaught illicit access:\n{fault}");
}
