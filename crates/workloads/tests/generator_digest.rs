//! Generator-stream digest: pins the first records of every workload to
//! the [`GENERATOR_VERSION`] that produced them.
//!
//! `.strc` headers and file names carry the generator version, so a trace
//! file only stays trustworthy if equal versions really mean equal
//! instruction streams. This test hashes the first [`RECORDS`] dynamic
//! instructions of every SPECint95 model and both OO programs, every field
//! of every record, and compares the digests against the table row for
//! the current version. A generator change that moves any record fails
//! here until `GENERATOR_VERSION` is bumped and a row for the new version
//! is pinned.

use sim_isa::{BranchClass, DynInstr, InstrClass, Reg};
use sim_workloads::{oo, Benchmark, Workload, GENERATOR_VERSION};

/// Records hashed per workload.
const RECORDS: usize = 4096;

/// Digest rows keyed by generator version: `(workload, FNV-1a-64)` in
/// [`workloads`] order. Add a row when bumping [`GENERATOR_VERSION`];
/// older rows document what earlier versions generated.
const PINNED: &[(u16, &[(&str, u64)])] = &[(
    1,
    &[
        ("compress", 0xa3b9a455795bfe14),
        ("gcc", 0x7a2b5f3f9c906a68),
        ("go", 0x508bad7142aaf276),
        ("ijpeg", 0xc3cd7a79b43fc3dc),
        ("m88ksim", 0x76b9afc919ae7703),
        ("perl", 0x4f3da24145c42cfb),
        ("vortex", 0xa50ff770d97736a0),
        ("xlisp", 0x49b0d34b8880d3a3),
        ("ixx", 0x242a05e632e36994),
        ("deltablue", 0x2747cfe73319b14d),
    ],
)];

/// Every workload a campaign generates: the eight benchmarks in Table 1
/// order, then the two OO programs.
fn workloads() -> Vec<Workload> {
    let mut all: Vec<Workload> = Benchmark::ALL.iter().map(|b| b.workload()).collect();
    all.push(oo::ixx());
    all.push(oo::deltablue());
    all
}

/// FNV-1a-64 over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// An optional field: a presence byte, then the value when present.
    fn opt(&mut self, v: Option<u64>) {
        match v {
            None => self.bytes(&[0]),
            Some(v) => {
                self.bytes(&[1]);
                self.u64(v);
            }
        }
    }
}

fn class_code(class: InstrClass) -> u64 {
    InstrClass::ALL.iter().position(|&c| c == class).unwrap() as u64
}

fn branch_code(class: BranchClass) -> u64 {
    BranchClass::ALL.iter().position(|&c| c == class).unwrap() as u64
}

fn reg(r: Option<Reg>) -> Option<u64> {
    r.map(|r| u64::from(r.index()))
}

/// Hashes every field of one record: pc, class, both sources, the
/// destination, the memory address, and the branch's class, direction
/// and target.
fn hash_record(h: &mut Fnv, instr: &DynInstr) {
    h.u64(instr.pc().raw());
    h.u64(class_code(instr.class()));
    let [a, b] = instr.srcs();
    h.opt(reg(a));
    h.opt(reg(b));
    h.opt(reg(instr.dst()));
    h.opt(instr.mem().map(|m| m.addr));
    match instr.branch_exec() {
        None => h.bytes(&[0]),
        Some(exec) => {
            h.bytes(&[1]);
            h.u64(branch_code(exec.class));
            h.bytes(&[u8::from(exec.taken)]);
            h.u64(exec.target.raw());
        }
    }
}

fn digest(workload: &Workload) -> u64 {
    let trace = workload.generate(RECORDS);
    assert_eq!(trace.len(), RECORDS, "{}", workload.name());
    let mut h = Fnv::new();
    for instr in trace.iter() {
        hash_record(&mut h, instr);
    }
    h.0
}

#[test]
fn generator_streams_match_the_pinned_digests_of_their_version() {
    let actual: Vec<(&str, u64)> = workloads().iter().map(|w| (w.name(), digest(w))).collect();
    let table: String = actual
        .iter()
        .map(|(name, d)| format!("            (\"{name}\", {d:#018x}),\n"))
        .collect();
    let Some(&(_, pinned)) = PINNED.iter().find(|(v, _)| *v == GENERATOR_VERSION) else {
        panic!(
            "GENERATOR_VERSION {GENERATOR_VERSION} has no pinned digests; add this row:\n        \
             ({GENERATOR_VERSION}, &[\n{table}        ]),"
        );
    };
    let moved: Vec<&str> = actual
        .iter()
        .filter(|(name, d)| !pinned.contains(&(*name, *d)))
        .map(|(name, _)| *name)
        .collect();
    assert!(
        moved.is_empty() && pinned.len() == actual.len(),
        "the generated stream of {moved:?} changed under GENERATOR_VERSION \
         {GENERATOR_VERSION}: bump GENERATOR_VERSION and pin a new row:\n        \
         ({}, &[\n{table}        ]),",
        GENERATOR_VERSION + 1
    );
}
