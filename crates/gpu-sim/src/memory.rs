//! Device memory accounting: a capacity-checked allocator.

use std::collections::BTreeMap;
use std::fmt;

/// Error: the device is out of memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfDeviceMemory {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes free at the time of the request.
    pub free: u64,
    /// Device capacity.
    pub capacity: u64,
}

impl fmt::Display for OutOfDeviceMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory: requested {} bytes, {} free of {}",
            self.requested, self.free, self.capacity
        )
    }
}

impl std::error::Error for OutOfDeviceMemory {}

/// Handle to a device allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceAlloc(pub(crate) u64);

/// Capacity-checked device memory book-keeping.
///
/// Tracks live allocations and the high-water mark. It does not store
/// data — executors keep real data host-side; this enforces the paper's
/// "does it fit in 16 GB?" constraint at the simulator's scale.
#[derive(Debug)]
pub struct DeviceMemory {
    capacity: u64,
    in_use: u64,
    high_water: u64,
    next_id: u64,
    live: BTreeMap<u64, u64>,
}

impl DeviceMemory {
    /// Creates a device memory of the given capacity.
    pub fn new(capacity: u64) -> Self {
        DeviceMemory {
            capacity,
            in_use: 0,
            high_water: 0,
            next_id: 0,
            live: BTreeMap::new(),
        }
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// Bytes free.
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.in_use
    }

    /// Peak bytes ever allocated simultaneously.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.live.len()
    }

    /// Allocates `bytes`, failing if capacity would be exceeded.
    pub fn alloc(&mut self, bytes: u64) -> Result<DeviceAlloc, OutOfDeviceMemory> {
        if self.in_use + bytes > self.capacity {
            return Err(OutOfDeviceMemory {
                requested: bytes,
                free: self.free_bytes(),
                capacity: self.capacity,
            });
        }
        self.in_use += bytes;
        self.high_water = self.high_water.max(self.in_use);
        let id = self.next_id;
        self.next_id += 1;
        self.live.insert(id, bytes);
        Ok(DeviceAlloc(id))
    }

    /// Shrinks the device capacity to `new_capacity`, clamped so live
    /// allocations survive (a device cannot evict memory already
    /// handed out). Returns the capacity actually in effect. Used by
    /// fault injection to model a co-tenant claiming memory mid-run.
    pub fn shrink_to(&mut self, new_capacity: u64) -> u64 {
        self.capacity = new_capacity.max(self.in_use);
        self.capacity
    }

    /// Frees an allocation. Panics on double free.
    pub fn dealloc(&mut self, handle: DeviceAlloc) {
        let bytes = self
            .live
            .remove(&handle.0)
            .expect("double free of device allocation");
        self.in_use -= bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_accounting() {
        let mut m = DeviceMemory::new(1000);
        let a = m.alloc(400).unwrap();
        let b = m.alloc(500).unwrap();
        assert_eq!(m.in_use(), 900);
        assert_eq!(m.free_bytes(), 100);
        assert!(m.alloc(200).is_err());
        m.dealloc(a);
        assert_eq!(m.in_use(), 500);
        let _c = m.alloc(200).unwrap();
        m.dealloc(b);
        assert_eq!(m.high_water(), 900);
        assert_eq!(m.live_allocations(), 1);
    }

    #[test]
    fn oom_error_reports_numbers() {
        let mut m = DeviceMemory::new(100);
        let e = m.alloc(150).unwrap_err();
        assert_eq!(e.requested, 150);
        assert_eq!(e.free, 100);
        assert!(e.to_string().contains("150"));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut m = DeviceMemory::new(100);
        let a = m.alloc(10).unwrap();
        m.dealloc(a);
        m.dealloc(a);
    }
}
