//! Dispatch-style comparison of the interpreter: flat threaded-code
//! dispatch vs threaded code with superinstruction fusion, on the
//! Figure-1 request mix. The equivalence line printed first is
//! byte-stable; the ns/op lines vary with the host. See
//! `ubench::interp_bench` for the harness.

fn main() {
    dmt_bench::ubench::interp_bench();
}
