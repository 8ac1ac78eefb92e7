//! The eager discrete-event engine: streams, events, engines, and the
//! host clock.

use crate::cost::{CostModel, KernelClass, KernelKind};
use crate::fault::{FaultKind, FaultPlan, FaultState, FaultStats, SimFault};
use crate::memory::{DeviceAlloc, DeviceMemory, OutOfDeviceMemory};
use crate::props::DeviceProps;
use crate::trace::{OpKind, Timeline, TraceRecord};
use crate::SimTime;

/// Handle to a simulated CUDA-like stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Stream(u32);

/// Handle to a recorded event (a point in a stream's history).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Event(u32);

/// Direction of a memory copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CopyDir {
    /// Host to device.
    H2D,
    /// Device to host.
    D2H,
}

/// Kind of host memory a copy touches (pinned transfers are faster and
/// are required for genuine asynchrony on real hardware).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostMem {
    /// Page-locked host memory.
    Pinned,
    /// Ordinary pageable memory.
    Pageable,
}

const ENGINE_KERNEL: usize = 0;
const ENGINE_H2D: usize = 1;
const ENGINE_D2H: usize = 2;

/// The GPU device simulator.
///
/// All submission methods are *eager*: the operation's start and end
/// times are fixed at enqueue (valid because streams are FIFO and
/// engines arbitrate in issue order, as on the real device), and the
/// operation is appended to the [`Timeline`].
#[derive(Debug)]
pub struct GpuSim {
    props: DeviceProps,
    cost: CostModel,
    memory: DeviceMemory,
    /// Busy-until time of each exclusive engine.
    engines: [SimTime; 3],
    /// Completion time of the last op issued to each stream.
    stream_tails: Vec<SimTime>,
    /// Dependency floor per stream, raised by `wait_event`.
    stream_floors: Vec<SimTime>,
    /// Completion times of recorded events.
    events: Vec<SimTime>,
    host_clock: SimTime,
    timeline: Timeline,
    faults: Option<FaultState>,
    /// High-water mark over host-managed pools carved out of this
    /// device (reported via [`GpuSim::note_pool_high_water`]).
    pool_high_water: u64,
}

/// What an op *is* — trace kind, transfer payload, kernel phase —
/// independent of where and when `schedule` places it.
struct OpDesc {
    kind: OpKind,
    payload: u64,
    kernel_class: Option<KernelClass>,
}

impl OpDesc {
    fn of(kind: KernelKind) -> Self {
        OpDesc {
            kind: OpKind::Kernel,
            payload: kind.payload(),
            kernel_class: Some(kind.class()),
        }
    }

    fn copy(kind: OpKind, bytes: u64) -> Self {
        OpDesc {
            kind,
            payload: bytes,
            kernel_class: None,
        }
    }
}

impl GpuSim {
    /// Creates a simulator for the given device and cost model.
    pub fn new(props: DeviceProps, cost: CostModel) -> Self {
        let memory = DeviceMemory::new(props.device_memory_bytes);
        GpuSim {
            props,
            cost,
            memory,
            engines: [0; 3],
            stream_tails: Vec::new(),
            stream_floors: Vec::new(),
            events: Vec::new(),
            host_clock: 0,
            timeline: Timeline::default(),
            faults: None,
            pool_high_water: 0,
        }
    }

    /// Creates a simulator that injects faults per `plan`.
    ///
    /// Only the fallible submission paths consult the plan:
    /// [`GpuSim::try_enqueue_kernel`], [`GpuSim::try_enqueue_copy`],
    /// [`GpuSim::malloc`], and [`GpuSim::check_pool_reserve`]. The
    /// infallible `enqueue_*` methods never fault, so legacy callers
    /// keep their exact semantics.
    pub fn with_faults(props: DeviceProps, cost: CostModel, plan: FaultPlan) -> Self {
        let mut sim = GpuSim::new(props, cost);
        sim.faults = Some(FaultState::new(plan));
        sim
    }

    /// Device properties.
    pub fn props(&self) -> &DeviceProps {
        &self.props
    }

    /// Cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Device memory book-keeping.
    pub fn memory(&self) -> &DeviceMemory {
        &self.memory
    }

    /// Current host clock, ns.
    pub fn now(&self) -> SimTime {
        self.host_clock
    }

    /// The timeline so far.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Consumes the simulator, returning its timeline.
    pub fn into_timeline(self) -> Timeline {
        self.timeline
    }

    /// Creates a new stream.
    pub fn create_stream(&mut self) -> Stream {
        let id = self.stream_tails.len() as u32;
        self.stream_tails.push(0);
        self.stream_floors.push(0);
        Stream(id)
    }

    fn schedule(
        &mut self,
        stream: Stream,
        engine: usize,
        duration: SimTime,
        label: String,
        desc: OpDesc,
    ) -> SimTime {
        let s = stream.0 as usize;
        let start = self
            .host_clock
            .max(self.stream_tails[s])
            .max(self.stream_floors[s])
            .max(self.engines[engine]);
        let end = start + duration;
        self.stream_tails[s] = end;
        self.engines[engine] = end;
        self.timeline.records.push(TraceRecord {
            kind: desc.kind,
            label,
            stream: stream.0,
            start,
            end,
            payload: desc.payload,
            kernel_class: desc.kernel_class,
        });
        end
    }

    /// Launches a kernel on `stream`; returns its completion time.
    ///
    /// Launching is asynchronous: the host clock does not advance.
    pub fn enqueue_kernel(
        &mut self,
        stream: Stream,
        kind: KernelKind,
        label: impl Into<String>,
    ) -> SimTime {
        let duration = self.cost.kernel_duration(kind);
        self.schedule(
            stream,
            ENGINE_KERNEL,
            duration,
            label.into(),
            OpDesc::of(kind),
        )
    }

    /// Enqueues an async copy on `stream`; returns its completion time.
    pub fn enqueue_copy(
        &mut self,
        stream: Stream,
        dir: CopyDir,
        bytes: u64,
        mem: HostMem,
        label: impl Into<String>,
    ) -> SimTime {
        let d2h = dir == CopyDir::D2H;
        let duration = self.cost.copy_duration(bytes, d2h, mem == HostMem::Pinned);
        let (engine, kind) = if d2h {
            (ENGINE_D2H, OpKind::CopyD2H)
        } else {
            (ENGINE_H2D, OpKind::CopyH2D)
        };
        self.schedule(
            stream,
            engine,
            duration,
            label.into(),
            OpDesc::copy(kind, bytes),
        )
    }

    fn roll_fault(&mut self, kind: FaultKind) -> bool {
        match &mut self.faults {
            Some(state) => state.roll(kind),
            None => false,
        }
    }

    /// Pushes a zero-duration marker record at the current host clock.
    fn push_marker(&mut self, kind: OpKind, label: String) {
        let at = self.host_clock;
        self.timeline.records.push(TraceRecord {
            kind,
            label,
            stream: u32::MAX,
            start: at,
            end: at,
            payload: 0,
            kernel_class: None,
        });
    }

    /// Fallible kernel launch: consults the fault plan, and on
    /// injection still charges the failed attempt to the compute
    /// engine (annotated in the timeline) before returning the fault.
    pub fn try_enqueue_kernel(
        &mut self,
        stream: Stream,
        kind: KernelKind,
        label: impl Into<String>,
    ) -> Result<SimTime, SimFault> {
        let label = label.into();
        if self.roll_fault(FaultKind::Kernel) {
            let duration = self.cost.kernel_duration(kind);
            self.schedule(
                stream,
                ENGINE_KERNEL,
                duration,
                format!("{label} [faulted]"),
                OpDesc::of(kind),
            );
            self.push_marker(OpKind::Fault, format!("kernel fault: {label}"));
            return Err(SimFault {
                kind: FaultKind::Kernel,
                label,
                lost_ns: duration,
            });
        }
        Ok(self.enqueue_kernel(stream, kind, label))
    }

    /// Fallible copy: consults the fault plan, charging failed
    /// attempts to the transfer engine like [`GpuSim::try_enqueue_kernel`].
    pub fn try_enqueue_copy(
        &mut self,
        stream: Stream,
        dir: CopyDir,
        bytes: u64,
        mem: HostMem,
        label: impl Into<String>,
    ) -> Result<SimTime, SimFault> {
        let label = label.into();
        if self.roll_fault(FaultKind::Copy) {
            let d2h = dir == CopyDir::D2H;
            let duration = self.cost.copy_duration(bytes, d2h, mem == HostMem::Pinned);
            let (engine, kind) = if d2h {
                (ENGINE_D2H, OpKind::CopyD2H)
            } else {
                (ENGINE_H2D, OpKind::CopyH2D)
            };
            self.schedule(
                stream,
                engine,
                duration,
                format!("{label} [faulted]"),
                OpDesc::copy(kind, bytes),
            );
            self.push_marker(OpKind::Fault, format!("copy fault: {label}"));
            return Err(SimFault {
                kind: FaultKind::Copy,
                label,
                lost_ns: duration,
            });
        }
        Ok(self.enqueue_copy(stream, dir, bytes, mem, label))
    }

    /// Checks whether a reservation of `bytes` from a pre-allocated
    /// pool succeeds. Pure bookkeeping on a fault-free simulator;
    /// under a fault plan it may inject a transient reservation
    /// failure (the caller retries or degrades).
    pub fn check_pool_reserve(
        &mut self,
        bytes: u64,
        label: impl Into<String>,
    ) -> Result<(), OutOfDeviceMemory> {
        let label = label.into();
        if self.roll_fault(FaultKind::PoolReserve) {
            self.push_marker(OpKind::Fault, format!("pool-reserve fault: {label}"));
            return Err(OutOfDeviceMemory {
                requested: bytes,
                free: self.memory.free_bytes(),
                capacity: self.memory.capacity(),
            });
        }
        Ok(())
    }

    /// Records a recovery action (retry, re-split, demotion, drain) as
    /// a zero-duration marker in the timeline.
    pub fn note_recovery(&mut self, label: impl Into<String>) {
        self.push_marker(OpKind::Recovery, label.into());
    }

    /// Reports the high-water mark of a host-managed pool carved
    /// out of this device's memory (the metrics layer cannot see pool
    /// offsets, only the backing allocation). The maximum across all
    /// reports is kept.
    pub fn note_pool_high_water(&mut self, bytes: u64) {
        self.pool_high_water = self.pool_high_water.max(bytes);
    }

    /// Largest reported pool usage, bytes (0 if never reported).
    pub fn pool_high_water(&self) -> u64 {
        self.pool_high_water
    }

    /// Injection counters, if this simulator runs a fault plan.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// Records an event capturing the current tail of `stream`.
    pub fn record_event(&mut self, stream: Stream) -> Event {
        let s = stream.0 as usize;
        let at = self.stream_tails[s].max(self.stream_floors[s]);
        let id = self.events.len() as u32;
        self.events.push(at);
        Event(id)
    }

    /// Makes all *subsequent* work on `stream` wait for `event`.
    pub fn wait_event(&mut self, stream: Stream, event: Event) {
        let floor = self.events[event.0 as usize];
        let s = stream.0 as usize;
        self.stream_floors[s] = self.stream_floors[s].max(floor);
    }

    /// Blocks the host until all work issued to `stream` completes.
    pub fn stream_synchronize(&mut self, stream: Stream) {
        self.host_clock = self.host_clock.max(self.stream_tails[stream.0 as usize]);
    }

    /// Blocks the host until `event` completes.
    pub fn event_synchronize(&mut self, event: Event) {
        self.host_clock = self.host_clock.max(self.events[event.0 as usize]);
    }

    /// Blocks the host until the device is idle.
    pub fn device_synchronize(&mut self) {
        let device_idle = self
            .stream_tails
            .iter()
            .copied()
            .chain(self.engines.iter().copied())
            .max()
            .unwrap_or(0);
        self.host_clock = self.host_clock.max(device_idle);
    }

    /// Charges `duration` of host-side computation (row grouping,
    /// prefix sums, chunk assembly) to the host clock.
    pub fn host_compute(&mut self, duration: SimTime, label: impl Into<String>) {
        let start = self.host_clock;
        self.host_clock += duration;
        self.timeline.records.push(TraceRecord {
            kind: OpKind::HostCompute,
            label: label.into(),
            stream: u32::MAX,
            start,
            end: self.host_clock,
            payload: duration,
            kernel_class: None,
        });
    }

    fn device_barrier(&mut self, label: String) -> SimTime {
        // "two commands from different streams can not run concurrently
        // if the host issues any device memory allocation" — the alloc
        // drains the device, blocks the host, and stalls every stream.
        let drain = self
            .stream_tails
            .iter()
            .copied()
            .chain(self.engines.iter().copied())
            .max()
            .unwrap_or(0)
            .max(self.host_clock);
        let end = drain + self.cost.alloc_overhead_ns;
        for t in &mut self.stream_tails {
            *t = (*t).max(end);
        }
        for e in &mut self.engines {
            *e = (*e).max(end);
        }
        self.host_clock = end;
        self.timeline.records.push(TraceRecord {
            kind: OpKind::AllocBarrier,
            label,
            stream: u32::MAX,
            start: drain,
            end,
            payload: 0,
            kernel_class: None,
        });
        end
    }

    /// `cudaMalloc`: allocates device memory with full barrier
    /// semantics (drains the device, stalls all streams).
    ///
    /// Under a fault plan this is also where a configured
    /// [`crate::CapacityShrink`] takes effect and where transient
    /// allocation faults are injected.
    pub fn malloc(
        &mut self,
        bytes: u64,
        label: impl Into<String>,
    ) -> Result<DeviceAlloc, OutOfDeviceMemory> {
        let label = label.into();
        if let Some(shrink) = self.faults.as_mut().and_then(|s| s.on_malloc()) {
            let target =
                (self.memory.capacity() as f64 * shrink.factor.clamp(0.0, 1.0)).round() as u64;
            let actual = self.memory.shrink_to(target);
            self.push_marker(
                OpKind::Fault,
                format!("capacity shrink: device now {actual} bytes"),
            );
        }
        if self.roll_fault(FaultKind::Alloc) {
            self.push_marker(OpKind::Fault, format!("alloc fault: {label}"));
            return Err(OutOfDeviceMemory {
                requested: bytes,
                free: self.memory.free_bytes(),
                capacity: self.memory.capacity(),
            });
        }
        let handle = self.memory.alloc(bytes)?;
        self.device_barrier(format!("malloc({bytes}): {label}"));
        Ok(handle)
    }

    /// `cudaFree`: releases device memory, same barrier semantics.
    pub fn free(&mut self, handle: DeviceAlloc, label: impl Into<String>) {
        self.memory.dealloc(handle);
        self.device_barrier(format!("free: {}", label.into()));
    }

    /// Synchronizes the device and returns the total elapsed simulated
    /// time (the makespan).
    pub fn finish(&mut self) -> SimTime {
        self.device_synchronize();
        self.host_clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> GpuSim {
        GpuSim::new(DeviceProps::v100_scaled(1 << 20), CostModel::calibrated())
    }

    fn kernel(flops: u64) -> KernelKind {
        KernelKind::Generic {
            ops: flops,
            rate: 1e9,
        } // 1 ns per op
    }

    #[test]
    fn single_stream_is_fifo() {
        let mut s = sim();
        let st = s.create_stream();
        let e1 = s.enqueue_kernel(st, kernel(1000), "k1");
        let e2 = s.enqueue_kernel(st, kernel(1000), "k2");
        assert!(e2 >= e1 + 1000);
        s.timeline().validate().unwrap();
    }

    #[test]
    fn kernels_and_copies_overlap_across_streams() {
        let mut s = sim();
        let s1 = s.create_stream();
        let s2 = s.create_stream();
        // Long kernel on s1, copy on s2: they use different engines and
        // should overlap in time.
        s.enqueue_kernel(s1, kernel(1_000_000), "long kernel");
        s.enqueue_copy(s2, CopyDir::D2H, 3_000_000, HostMem::Pinned, "copy");
        let makespan = s.finish();
        let t = s.timeline();
        let kernel_busy = t.busy_time(OpKind::Kernel);
        let copy_busy = t.busy_time(OpKind::CopyD2H);
        assert!(
            makespan < kernel_busy + copy_busy,
            "no overlap happened: makespan {makespan} = {kernel_busy} + {copy_busy}"
        );
        t.validate().unwrap();
    }

    #[test]
    fn same_direction_copies_serialize() {
        let mut s = sim();
        let s1 = s.create_stream();
        let s2 = s.create_stream();
        s.enqueue_copy(s1, CopyDir::D2H, 3_000_000, HostMem::Pinned, "c1");
        s.enqueue_copy(s2, CopyDir::D2H, 3_000_000, HostMem::Pinned, "c2");
        let makespan = s.finish();
        let busy = s.timeline().busy_time(OpKind::CopyD2H);
        assert_eq!(
            makespan, busy,
            "one engine per direction: copies must serialize"
        );
    }

    #[test]
    fn opposite_direction_copies_overlap() {
        let mut s = sim();
        let s1 = s.create_stream();
        let s2 = s.create_stream();
        s.enqueue_copy(s1, CopyDir::D2H, 3_000_000, HostMem::Pinned, "down");
        s.enqueue_copy(s2, CopyDir::H2D, 3_000_000, HostMem::Pinned, "up");
        let makespan = s.finish();
        let busy =
            s.timeline().busy_time(OpKind::CopyD2H) + s.timeline().busy_time(OpKind::CopyH2D);
        assert!(makespan < busy);
    }

    #[test]
    fn wait_event_orders_across_streams() {
        let mut s = sim();
        let s1 = s.create_stream();
        let s2 = s.create_stream();
        let k1_end = s.enqueue_kernel(s1, kernel(500_000), "producer");
        let ev = s.record_event(s1);
        s.wait_event(s2, ev);
        let c_end = s.enqueue_copy(s2, CopyDir::D2H, 100, HostMem::Pinned, "consumer");
        assert!(c_end >= k1_end, "consumer must wait for producer event");
        s.timeline().validate().unwrap();
    }

    #[test]
    fn event_before_work_is_immediate() {
        let mut s = sim();
        let s1 = s.create_stream();
        let ev = s.record_event(s1);
        let s2 = s.create_stream();
        s.wait_event(s2, ev);
        let end = s.enqueue_kernel(s2, kernel(100), "k");
        assert_eq!(end, 100 + s.cost().kernel_launch_ns);
    }

    #[test]
    fn malloc_is_a_device_wide_barrier() {
        let mut s = sim();
        let s1 = s.create_stream();
        let s2 = s.create_stream();
        let k_end = s.enqueue_kernel(s1, kernel(1_000_000), "running");
        let before = s.now();
        assert_eq!(before, 0, "launch must not block the host");
        let _a = s.malloc(1024, "mid-flight alloc").unwrap();
        // The alloc drained the running kernel and charged overhead.
        assert!(s.now() >= k_end + s.cost().alloc_overhead_ns);
        // Subsequent work on the *other* stream cannot start before the
        // barrier completed.
        let c_end = s.enqueue_copy(s2, CopyDir::H2D, 100, HostMem::Pinned, "after");
        assert!(c_end > k_end);
        s.timeline().validate().unwrap();
    }

    #[test]
    fn free_releases_memory_with_barrier() {
        let mut s = sim();
        let a = s.malloc(1024, "a").unwrap();
        let used = s.memory().in_use();
        let t_before = s.now();
        s.free(a, "a");
        assert_eq!(s.memory().in_use(), used - 1024);
        assert!(s.now() > t_before);
    }

    #[test]
    fn malloc_oom_fails_cleanly() {
        let mut s = sim(); // 1 MiB device
        assert!(s.malloc(2 << 20, "too big").is_err());
        assert_eq!(s.memory().in_use(), 0);
    }

    #[test]
    fn host_compute_advances_only_host() {
        let mut s = sim();
        let s1 = s.create_stream();
        s.host_compute(5_000, "grouping");
        assert_eq!(s.now(), 5_000);
        // Device work enqueued now cannot start before the host issued it.
        let end = s.enqueue_kernel(s1, kernel(100), "k");
        assert!(end >= 5_000 + 100);
    }

    #[test]
    fn stream_synchronize_blocks_host() {
        let mut s = sim();
        let s1 = s.create_stream();
        let end = s.enqueue_kernel(s1, kernel(1_000_000), "k");
        assert_eq!(s.now(), 0);
        s.stream_synchronize(s1);
        assert_eq!(s.now(), end);
    }

    #[test]
    fn deterministic_timelines() {
        let run = || {
            let mut s = sim();
            let s1 = s.create_stream();
            let s2 = s.create_stream();
            for i in 0..10 {
                s.enqueue_kernel(s1, kernel(1000 * (i + 1)), format!("k{i}"));
                s.enqueue_copy(s2, CopyDir::D2H, 10_000 * (i + 1), HostMem::Pinned, "c");
            }
            s.finish()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pageable_copy_slower_than_pinned() {
        let mut s = sim();
        let s1 = s.create_stream();
        let pinned_end = s.enqueue_copy(s1, CopyDir::D2H, 1 << 20, HostMem::Pinned, "p");
        let mut s2sim = sim();
        let st = s2sim.create_stream();
        let pageable_end = s2sim.enqueue_copy(st, CopyDir::D2H, 1 << 20, HostMem::Pageable, "pg");
        assert!(pageable_end > pinned_end);
    }
}
