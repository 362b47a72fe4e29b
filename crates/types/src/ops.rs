//! Abstract operation traces.
//!
//! Workloads in ConfBench-RS do real computation *and* record what they did
//! as a stream of coarse, batched [`Op`]s. A simulated VM (crate
//! `confbench-vmm`) replays the trace against a platform cost model to charge
//! virtual cycles; a language runtime (crate `confbench-faasrt`) transforms
//! the trace according to its runtime profile before execution.

use serde::{Deserialize, Serialize};

/// The class of a simulated system call.
///
/// Syscall classes matter because different TEEs charge very different exit
/// costs: on TDX each syscall that reaches the host costs a TDCALL/SEAMCALL
/// round-trip; on SEV-SNP a GHCB exit; inside a CCA realm an RSI call plus the
/// RMM interposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SyscallKind {
    /// File open/close/stat — metadata only.
    FileMeta,
    /// Read from a file descriptor (payload accounted via `IoRead`).
    FileRead,
    /// Write to a file descriptor (payload accounted via `IoWrite`).
    FileWrite,
    /// Create/remove a directory entry.
    DirOp,
    /// Pipe read/write used by context-switch benchmarks.
    Pipe,
    /// Spawn a process (fork+exec).
    Spawn,
    /// Clock/gettime and other vDSO-ish calls.
    Time,
    /// Anything else.
    Other,
}

impl SyscallKind {
    /// Every syscall class.
    pub const ALL: [SyscallKind; 8] = [
        SyscallKind::FileMeta,
        SyscallKind::FileRead,
        SyscallKind::FileWrite,
        SyscallKind::DirOp,
        SyscallKind::Pipe,
        SyscallKind::Spawn,
        SyscallKind::Time,
        SyscallKind::Other,
    ];

    /// Whether the call must exit to the untrusted host (true for anything
    /// touching host-emulated devices), as opposed to being serviced inside
    /// the guest kernel.
    pub fn exits_to_host(self) -> bool {
        !matches!(self, SyscallKind::Time)
    }
}

/// One batched abstract operation recorded by a workload.
///
/// Counts are aggregated (e.g. `Cpu(1_000_000)` is one trace entry, not a
/// million), keeping traces small while preserving the information cost
/// models need. Memory operations carry a base address so the VM's cache
/// simulator can derive a deterministic access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Op {
    /// `n` integer ALU operations.
    Cpu(u64),
    /// `n` floating-point operations.
    Float(u64),
    /// Sequential read of `bytes` starting at virtual address `addr`.
    MemRead {
        /// Base virtual address of the access run.
        addr: u64,
        /// Number of bytes read.
        bytes: u64,
    },
    /// Sequential write of `bytes` starting at virtual address `addr`.
    MemWrite {
        /// Base virtual address of the access run.
        addr: u64,
        /// Number of bytes written.
        bytes: u64,
    },
    /// Heap allocation of `bytes` (TEE models charge page acceptance /
    /// integrity-metadata costs proportional to fresh pages touched).
    Alloc(u64),
    /// Heap release of `bytes`.
    Free(u64),
    /// `count` system calls of the given class.
    Syscall {
        /// The syscall class.
        kind: SyscallKind,
        /// How many calls.
        count: u64,
    },
    /// Device/file input of `bytes` (DMA path; TDX bounce-buffers this).
    IoRead(u64),
    /// Device/file output of `bytes` (DMA path; TDX bounce-buffers this).
    IoWrite(u64),
    /// A voluntary context switch (sleep/wake, pipe ping-pong).
    CtxSwitch(u64),
    /// Release `bytes` of pages to the host and fault them back in
    /// (balloon/`MADV_DONTNEED` churn — GC heap trimming). In a TEE each
    /// refaulted page must be re-accepted/re-validated.
    PageCycle(u64),
    /// Block for `ns` nanoseconds of host-side device latency (fsync,
    /// storage flush). Charged in *host* time: the FVP simulation
    /// multiplier does not apply, which is why device-bound workloads
    /// change character inside the simulator.
    DeviceWait(u64),
    /// `bytes` of log output written to the console device.
    Log(u64),
    /// DMA of `bytes` from guest memory *to* an attached accelerator
    /// (weights/activations upload). On a VM with an attested TDISP device
    /// this lands directly in device-private memory; otherwise it takes the
    /// swiotlb bounce path like ordinary device I/O.
    DevDmaIn(u64),
    /// DMA of `bytes` from an attached accelerator back to guest memory
    /// (results download). Path selection mirrors [`Op::DevDmaIn`].
    DevDmaOut(u64),
    /// `ns` nanoseconds of accelerator kernel execution (conv/dense/...).
    /// Charged in host time like [`Op::DeviceWait`] — the device runs at
    /// wall speed regardless of any CPU simulation multiplier.
    DevKernel(u64),
}

/// An append-only sequence of [`Op`]s with convenience recorders.
///
/// # Example
///
/// ```
/// use confbench_types::{OpTrace, SyscallKind};
///
/// let mut t = OpTrace::new();
/// t.cpu(500);
/// t.io_write(1 << 20);
/// t.syscall(SyscallKind::FileWrite, 4);
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.total_io_bytes(), 1 << 20);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OpTrace {
    ops: Vec<Op>,
    next_addr: u64,
}

impl OpTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        OpTrace { ops: Vec::new(), next_addr: 0x1000_0000 }
    }

    /// Appends a raw operation.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Records `n` integer operations.
    pub fn cpu(&mut self, n: u64) {
        self.ops.push(Op::Cpu(n));
    }

    /// Records `n` floating-point operations.
    pub fn float(&mut self, n: u64) {
        self.ops.push(Op::Float(n));
    }

    /// Records a sequential read of `bytes` at an automatically assigned
    /// address, returning the address so related accesses can reuse it.
    pub fn mem_read(&mut self, bytes: u64) -> u64 {
        let addr = self.bump_addr(bytes);
        self.ops.push(Op::MemRead { addr, bytes });
        addr
    }

    /// Records a sequential write of `bytes` at an automatically assigned
    /// address, returning the address.
    pub fn mem_write(&mut self, bytes: u64) -> u64 {
        let addr = self.bump_addr(bytes);
        self.ops.push(Op::MemWrite { addr, bytes });
        addr
    }

    /// Records a read at an explicit address (for re-touching a prior
    /// allocation so the cache model sees reuse).
    pub fn mem_read_at(&mut self, addr: u64, bytes: u64) {
        self.ops.push(Op::MemRead { addr, bytes });
    }

    /// Records a heap allocation.
    pub fn alloc(&mut self, bytes: u64) {
        self.ops.push(Op::Alloc(bytes));
    }

    /// Records a heap release.
    pub fn free(&mut self, bytes: u64) {
        self.ops.push(Op::Free(bytes));
    }

    /// Records `count` syscalls of class `kind`.
    pub fn syscall(&mut self, kind: SyscallKind, count: u64) {
        self.ops.push(Op::Syscall { kind, count });
    }

    /// Records device input of `bytes`.
    pub fn io_read(&mut self, bytes: u64) {
        self.ops.push(Op::IoRead(bytes));
    }

    /// Records device output of `bytes`.
    pub fn io_write(&mut self, bytes: u64) {
        self.ops.push(Op::IoWrite(bytes));
    }

    /// Records `n` voluntary context switches.
    pub fn ctx_switch(&mut self, n: u64) {
        self.ops.push(Op::CtxSwitch(n));
    }

    /// Records a release-and-refault cycle of `bytes` of pages.
    pub fn page_cycle(&mut self, bytes: u64) {
        self.ops.push(Op::PageCycle(bytes));
    }

    /// Records `ns` nanoseconds of host-side device wait.
    pub fn device_wait(&mut self, ns: u64) {
        self.ops.push(Op::DeviceWait(ns));
    }

    /// Records `bytes` of console logging.
    pub fn log(&mut self, bytes: u64) {
        self.ops.push(Op::Log(bytes));
    }

    /// Records a DMA upload of `bytes` to an attached accelerator.
    pub fn dev_dma_in(&mut self, bytes: u64) {
        self.ops.push(Op::DevDmaIn(bytes));
    }

    /// Records a DMA download of `bytes` from an attached accelerator.
    pub fn dev_dma_out(&mut self, bytes: u64) {
        self.ops.push(Op::DevDmaOut(bytes));
    }

    /// Records `ns` nanoseconds of accelerator kernel execution.
    pub fn dev_kernel(&mut self, ns: u64) {
        self.ops.push(Op::DevKernel(ns));
    }

    /// Number of trace entries (batched, not expanded).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterates over the recorded operations.
    pub fn iter(&self) -> std::slice::Iter<'_, Op> {
        self.ops.iter()
    }

    /// Total integer operations recorded.
    pub fn total_cpu_ops(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Cpu(n) => *n,
                _ => 0,
            })
            .sum()
    }

    /// Total floating-point operations recorded.
    pub fn total_float_ops(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Float(n) => *n,
                _ => 0,
            })
            .sum()
    }

    /// Total bytes moved through the device/DMA path (reads + writes).
    pub fn total_io_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::IoRead(n) | Op::IoWrite(n) => *n,
                _ => 0,
            })
            .sum()
    }

    /// Total bytes moved over the accelerator DMA path (uploads +
    /// downloads).
    pub fn total_dev_dma_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::DevDmaIn(n) | Op::DevDmaOut(n) => *n,
                _ => 0,
            })
            .sum()
    }

    /// Total bytes allocated.
    pub fn total_alloc_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Alloc(n) => *n,
                _ => 0,
            })
            .sum()
    }

    /// Total syscall count across all classes.
    pub fn total_syscalls(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Syscall { count, .. } => *count,
                _ => 0,
            })
            .sum()
    }

    /// Drops the spare capacity recording left behind, for a trace that is
    /// about to be retained.
    pub fn shrink_to_fit(&mut self) {
        self.ops.shrink_to_fit();
    }

    /// Merges another trace onto the end of this one.
    pub fn extend_from(&mut self, other: &OpTrace) {
        self.ops.extend_from_slice(&other.ops);
    }

    fn bump_addr(&mut self, bytes: u64) -> u64 {
        let addr = self.next_addr;
        // Keep distinct logical buffers on distinct 4 KiB pages so the cache
        // model does not alias unrelated data.
        self.next_addr = (self.next_addr + bytes + 0xfff) & !0xfff;
        addr
    }
}

impl<'a> IntoIterator for &'a OpTrace {
    type Item = &'a Op;
    type IntoIter = std::slice::Iter<'a, Op>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

impl Extend<Op> for OpTrace {
    fn extend<T: IntoIterator<Item = Op>>(&mut self, iter: T) {
        self.ops.extend(iter);
    }
}

impl FromIterator<Op> for OpTrace {
    fn from_iter<T: IntoIterator<Item = Op>>(iter: T) -> Self {
        let mut t = OpTrace::new();
        t.extend(iter);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorders_accumulate_totals() {
        let mut t = OpTrace::new();
        t.cpu(100);
        t.cpu(50);
        t.float(7);
        t.io_read(10);
        t.io_write(20);
        t.alloc(4096);
        t.syscall(SyscallKind::Pipe, 3);
        t.syscall(SyscallKind::Spawn, 2);
        assert_eq!(t.total_cpu_ops(), 150);
        assert_eq!(t.total_float_ops(), 7);
        assert_eq!(t.total_io_bytes(), 30);
        assert_eq!(t.total_alloc_bytes(), 4096);
        assert_eq!(t.total_syscalls(), 5);
    }

    #[test]
    fn addresses_do_not_alias_pages() {
        let mut t = OpTrace::new();
        let a = t.mem_write(100);
        let b = t.mem_read(100);
        assert_ne!(a & !0xfff, b & !0xfff, "buffers must land on distinct pages");
    }

    #[test]
    fn explicit_address_reuse() {
        let mut t = OpTrace::new();
        let a = t.mem_write(64);
        t.mem_read_at(a, 64);
        let ops: Vec<_> = t.iter().collect();
        match (ops[0], ops[1]) {
            (Op::MemWrite { addr: w, .. }, Op::MemRead { addr: r, .. }) => assert_eq!(w, r),
            other => panic!("unexpected ops {other:?}"),
        }
    }

    #[test]
    fn extend_and_collect() {
        let mut a = OpTrace::new();
        a.cpu(1);
        let b: OpTrace = a.iter().copied().collect();
        assert_eq!(b.total_cpu_ops(), 1);
        let mut c = OpTrace::new();
        c.extend_from(&a);
        c.extend_from(&b);
        assert_eq!(c.total_cpu_ops(), 2);
    }

    #[test]
    fn time_syscall_stays_in_guest() {
        assert!(!SyscallKind::Time.exits_to_host());
        assert!(SyscallKind::FileWrite.exits_to_host());
    }
}
