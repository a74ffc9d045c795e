//! Kernel objects the §5 extension protects: file-system metadata
//! (inodes) and IPC message queues.
//!
//! From the paper: *"CARAT KOP's memory guarding mechanism could be
//! extended to restrict kernel module access to files by safeguarding
//! memory regions associated with file system metadata or inodes ...
//! Similarly, for inter-process communication (IPC), the system could
//! enforce policies by guarding memory regions linked to IPC mechanisms,
//! such as message queues or shared memory segments."*
//!
//! The key design point (also from §5): this requires **no new
//! mechanism** — inodes and queues are ordinary kernel objects at known
//! addresses in the direct map, so protecting them is just more firewall
//! rules. The structs below are laid out in *simulated kernel memory*
//! (not Rust-side state), so a module's guarded loads/stores against them
//! are policed exactly like any other access.

use kop_core::{KernelError, KernelResult, Size, VAddr};

use crate::kernel::Kernel;

/// In-memory inode layout (all fields 8 bytes for simplicity):
/// `{ mode, uid, size, data_ptr }`.
pub const INODE_SIZE: u64 = 32;
/// Offset of the mode field.
pub const INODE_MODE_OFF: u64 = 0;
/// Offset of the owner uid field.
pub const INODE_UID_OFF: u64 = 8;
/// Offset of the file-size field.
pub const INODE_SIZE_OFF: u64 = 16;
/// Offset of the data-pointer field.
pub const INODE_DATA_OFF: u64 = 24;

/// Message-queue header layout: `{ capacity, head, tail, elem_size }`,
/// followed by `capacity * elem_size` bytes of slots.
pub const MQ_HEADER_SIZE: u64 = 32;

/// A file registered in the simulated VFS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileHandle {
    /// File name.
    pub name: String,
    /// Address of the inode structure in kernel memory.
    pub inode: VAddr,
}

/// An IPC message queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueueHandle {
    /// Queue name.
    pub name: String,
    /// Address of the queue header in kernel memory.
    pub header: VAddr,
    /// Element size in bytes.
    pub elem_size: u64,
    /// Capacity in elements.
    pub capacity: u64,
}

impl Kernel {
    /// Create a file: allocates an inode (and a data block) in kernel
    /// memory and registers it. Returns the handle whose `inode` address
    /// policies can guard.
    pub fn vfs_create(&mut self, name: &str, mode: u64, uid: u64) -> KernelResult<FileHandle> {
        if self.vfs_lookup(name).is_some() {
            return Err(KernelError::InvalidArgument(format!(
                "file '{name}' already exists"
            )));
        }
        let inode = self.kmalloc(INODE_SIZE)?;
        let data = self.kmalloc(4096)?;
        self.mem.write_uint(inode + INODE_MODE_OFF, Size(8), mode)?;
        self.mem.write_uint(inode + INODE_UID_OFF, Size(8), uid)?;
        self.mem.write_uint(inode + INODE_SIZE_OFF, Size(8), 0)?;
        self.mem
            .write_uint(inode + INODE_DATA_OFF, Size(8), data.raw())?;
        let handle = FileHandle {
            name: name.to_string(),
            inode,
        };
        self.files.push(handle.clone());
        self.printk(&format!("vfs: created '{name}' inode at {inode}"));
        Ok(handle)
    }

    /// Look up a file by name.
    pub fn vfs_lookup(&self, name: &str) -> Option<&FileHandle> {
        self.files.iter().find(|f| f.name == name)
    }

    /// Read a file's mode bits from its in-memory inode.
    pub fn vfs_mode(&mut self, name: &str) -> KernelResult<u64> {
        let inode = self
            .vfs_lookup(name)
            .ok_or_else(|| KernelError::InvalidArgument(format!("no file '{name}'")))?
            .inode;
        self.mem.read_uint(inode + INODE_MODE_OFF, Size(8))
    }

    /// Create an IPC message queue in kernel memory.
    pub fn ipc_create(
        &mut self,
        name: &str,
        capacity: u64,
        elem_size: u64,
    ) -> KernelResult<QueueHandle> {
        if self.queues.iter().any(|q| q.name == name) {
            return Err(KernelError::InvalidArgument(format!(
                "queue '{name}' already exists"
            )));
        }
        let header = self.kmalloc(MQ_HEADER_SIZE + capacity * elem_size)?;
        self.mem.write_uint(header, Size(8), capacity)?;
        self.mem.write_uint(header + 8, Size(8), 0)?; // head
        self.mem.write_uint(header + 16, Size(8), 0)?; // tail
        self.mem.write_uint(header + 24, Size(8), elem_size)?;
        let handle = QueueHandle {
            name: name.to_string(),
            header,
            elem_size,
            capacity,
        };
        self.queues.push(handle.clone());
        self.printk(&format!("ipc: created queue '{name}' at {header}"));
        Ok(handle)
    }

    /// Look up a queue by name.
    pub fn ipc_lookup(&self, name: &str) -> Option<&QueueHandle> {
        self.queues.iter().find(|q| q.name == name)
    }

    /// Kernel-side (trusted) send: enqueue one element.
    pub fn ipc_send(&mut self, name: &str, payload: &[u8]) -> KernelResult<()> {
        let q = self
            .ipc_lookup(name)
            .cloned()
            .ok_or_else(|| KernelError::InvalidArgument(format!("no queue '{name}'")))?;
        if payload.len() as u64 > q.elem_size {
            return Err(KernelError::InvalidArgument("payload too big".into()));
        }
        let head = self.mem.read_uint(q.header + 8, Size(8))?;
        let tail = self.mem.read_uint(q.header + 16, Size(8))?;
        if tail - head >= q.capacity {
            return Err(KernelError::NoMemory(format!("queue '{name}' full")));
        }
        let slot = q.header + MQ_HEADER_SIZE + (tail % q.capacity) * q.elem_size;
        self.mem.write_bytes(slot, payload)?;
        self.mem.write_uint(q.header + 16, Size(8), tail + 1)?;
        Ok(())
    }

    /// Kernel-side (trusted) receive: dequeue one element.
    pub fn ipc_recv(&mut self, name: &str) -> KernelResult<Vec<u8>> {
        let q = self
            .ipc_lookup(name)
            .cloned()
            .ok_or_else(|| KernelError::InvalidArgument(format!("no queue '{name}'")))?;
        let head = self.mem.read_uint(q.header + 8, Size(8))?;
        let tail = self.mem.read_uint(q.header + 16, Size(8))?;
        if head == tail {
            return Err(KernelError::InvalidArgument(format!(
                "queue '{name}' empty"
            )));
        }
        let slot = q.header + MQ_HEADER_SIZE + (head % q.capacity) * q.elem_size;
        let mut buf = vec![0u8; q.elem_size as usize];
        self.mem.read_bytes(slot, &mut buf)?;
        self.mem.write_uint(q.header + 8, Size(8), head + 1)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vfs_create_and_lookup() {
        let (mut kernel, _) = Kernel::boot_default();
        let f = kernel.vfs_create("/etc/shadow", 0o600, 0).unwrap();
        assert!(f.inode.raw() >= kop_core::layout::DIRECT_MAP_BASE);
        assert_eq!(kernel.vfs_mode("/etc/shadow").unwrap(), 0o600);
        assert!(kernel.vfs_lookup("/etc/shadow").is_some());
        assert!(kernel.vfs_lookup("/nope").is_none());
        assert!(kernel.vfs_create("/etc/shadow", 0, 0).is_err());
        assert!(kernel.vfs_mode("/nope").is_err());
    }

    #[test]
    fn inode_fields_live_in_simulated_memory() {
        // The whole point: the inode is bytes in kernel memory that
        // guarded module accesses would hit.
        let (mut kernel, _) = Kernel::boot_default();
        let f = kernel.vfs_create("/data", 0o644, 1000).unwrap();
        assert_eq!(
            kernel
                .mem
                .read_uint(f.inode + INODE_UID_OFF, Size(8))
                .unwrap(),
            1000
        );
        // Direct memory tamper is visible through the VFS API.
        kernel
            .mem
            .write_uint(f.inode + INODE_MODE_OFF, Size(8), 0o777)
            .unwrap();
        assert_eq!(kernel.vfs_mode("/data").unwrap(), 0o777);
    }

    #[test]
    fn ipc_send_recv_roundtrip() {
        let (mut kernel, _) = Kernel::boot_default();
        kernel.ipc_create("events", 4, 16).unwrap();
        kernel.ipc_send("events", b"msg-one").unwrap();
        kernel.ipc_send("events", b"msg-two").unwrap();
        let m1 = kernel.ipc_recv("events").unwrap();
        assert_eq!(&m1[..7], b"msg-one");
        let m2 = kernel.ipc_recv("events").unwrap();
        assert_eq!(&m2[..7], b"msg-two");
        assert!(kernel.ipc_recv("events").is_err(), "empty");
    }

    #[test]
    fn ipc_capacity_enforced() {
        let (mut kernel, _) = Kernel::boot_default();
        kernel.ipc_create("small", 2, 8).unwrap();
        kernel.ipc_send("small", b"a").unwrap();
        kernel.ipc_send("small", b"b").unwrap();
        assert!(matches!(
            kernel.ipc_send("small", b"c").unwrap_err(),
            KernelError::NoMemory(_)
        ));
        kernel.ipc_recv("small").unwrap();
        kernel.ipc_send("small", b"c").unwrap();
    }

    #[test]
    fn ipc_payload_size_checked() {
        let (mut kernel, _) = Kernel::boot_default();
        kernel.ipc_create("q", 2, 4).unwrap();
        assert!(kernel.ipc_send("q", b"way too long").is_err());
    }
}
