//! A warm arena evaluates an APC layer position (fill, fused evaluate,
//! recycle) with no heap allocation beyond the returned output `Vec`: the
//! count, pool and drain stages work in arena-held plane blocks and count
//! buffers. A counting global allocator sees every allocation the test
//! thread makes while it counts.

use sc_blocks::feature_block::{FeatureBlock, FeatureBlockKind};
use sc_core::arena::StreamArena;
use sc_core::bitstream::StreamLength;
use sc_core::sng::probability_threshold;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the allocations of threads that count.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations this thread makes while `f` runs.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|counting| counting.set(true));
    f();
    COUNTING.with(|counting| counting.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// One APC layer of `rows` rows of `lanes`-lane fields, `window` fields per
/// position, at L = `bits`, and the thresholds of one position: values on
/// the L + 1 levels inputs are snapped to, whose thresholds at L = 1024
/// are multiples of 64, mostly with a low byte (the byte compare's
/// tie-break).
fn layer(
    kind: FeatureBlockKind,
    lanes: usize,
    window: usize,
    rows: usize,
    bits: usize,
) -> (sc_blocks::feature_block::CompiledLayer, Vec<Vec<u32>>) {
    let length = StreamLength::new(bits);
    let block = FeatureBlock::with_pool_window(kind, lanes, window, length, 7).unwrap();
    let weights: Vec<Vec<f64>> = (0..rows)
        .map(|row| {
            (0..lanes)
                .map(|i| ((row * lanes + i) % 17) as f64 / 8.5 - 1.0)
                .collect()
        })
        .collect();
    let fields = (0..window)
        .map(|field| {
            (0..lanes)
                .map(|i| {
                    let level = (field * lanes + i) * 37 % (bits + 1);
                    probability_threshold(level as f64 / bits as f64).unwrap()
                })
                .collect()
        })
        .collect();
    (block.compile_layer(&weights).unwrap(), fields)
}

#[test]
fn warm_apc_positions_allocate_only_their_output_vec() {
    use FeatureBlockKind::{ApcAvgBtanh, ApcMaxBtanh};
    // The all-APC tiny LeNet's conv1 and conv2 (25 and 200 lanes, 8 and 16
    // filters, 2x2 pool windows), conv1 with the average pool, and fc1
    // (256 lanes, 64 units) evaluated in two row ranges of no whole number
    // of row groups, as fan-out splits it, at L = 256, and conv1 and fc1
    // again at L = 1024, where the fills take the low-byte tie-break.
    let cases: [(FeatureBlockKind, usize, usize, &[usize], usize); 6] = [
        (ApcMaxBtanh, 25, 4, &[0, 8], 256),
        (ApcMaxBtanh, 200, 4, &[0, 16], 256),
        (ApcAvgBtanh, 25, 4, &[0, 8], 256),
        (ApcMaxBtanh, 256, 1, &[0, 29, 64], 256),
        (ApcMaxBtanh, 25, 4, &[0, 8], 1024),
        (ApcMaxBtanh, 256, 1, &[0, 29, 64], 1024),
    ];
    for (kind, lanes, window, splits, bits) in cases {
        let (layer, fields) = layer(kind, lanes, window, splits[splits.len() - 1], bits);
        let low_bytes = fields.iter().flatten().filter(|&&t| t & 0xFF != 0).count();
        assert_eq!(low_bytes > 0, bits == 1024, "{kind} at L={bits}");
        let ranges = splits.windows(2).map(|range| range[0]..range[1]);
        let mut arena = StreamArena::new();
        let position = |arena: &mut StreamArena| {
            let inputs = layer.fill(&fields, arena).unwrap();
            for range in ranges.clone() {
                let outputs = layer.evaluate(&inputs, range, arena).unwrap();
                arena.recycle_all(outputs);
            }
            inputs.recycle(arena);
        };
        position(&mut arena);
        let allocations = allocations_during(|| position(&mut arena));
        assert_eq!(
            allocations,
            splits.len() - 1,
            "{kind} with {lanes} lanes at L={bits}: a warm position allocates \
             only each evaluation's output Vec"
        );
    }
}
