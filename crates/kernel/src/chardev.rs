//! Character devices and ioctl dispatch.
//!
//! Figure 1 of the paper: the `policy-manager` user-space application
//! speaks to the policy module through `ioctl /dev/carat`. This module is
//! the dispatch layer: a registry of device nodes, each with an ioctl
//! handler taking and returning raw bytes.

use std::collections::BTreeMap;

use kop_core::{KernelError, KernelResult};

/// An ioctl handler: raw request bytes in, raw response bytes out.
pub type IoctlHandler = Box<dyn Fn(&[u8]) -> KernelResult<Vec<u8>> + Send + Sync>;

/// Registry of character devices.
#[derive(Default)]
pub struct DevRegistry {
    devices: BTreeMap<String, IoctlHandler>,
}

impl DevRegistry {
    /// Empty registry.
    pub fn new() -> DevRegistry {
        DevRegistry::default()
    }

    /// Register a device node (e.g. `"/dev/carat"`). Panics on duplicate —
    /// device registration is programmer-controlled, not input-driven.
    pub fn register(&mut self, path: impl Into<String>, handler: IoctlHandler) {
        let path = path.into();
        assert!(
            !self.devices.contains_key(&path),
            "device {path} already registered"
        );
        self.devices.insert(path, handler);
    }

    /// Issue an ioctl to a device node.
    pub fn ioctl(&self, path: &str, request: &[u8]) -> KernelResult<Vec<u8>> {
        let handler = self
            .devices
            .get(path)
            .ok_or_else(|| KernelError::NoSuchDevice(path.to_string()))?;
        handler(request)
    }

    /// Registered device paths.
    pub fn paths(&self) -> Vec<&str> {
        self.devices.keys().map(|s| s.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_ioctl() {
        let mut reg = DevRegistry::new();
        reg.register(
            "/dev/echo",
            Box::new(|req| Ok(req.iter().rev().copied().collect())),
        );
        assert_eq!(reg.ioctl("/dev/echo", &[1, 2, 3]).unwrap(), vec![3, 2, 1]);
        assert_eq!(reg.paths(), vec!["/dev/echo"]);
    }

    #[test]
    fn missing_device_errors() {
        let reg = DevRegistry::new();
        assert!(matches!(
            reg.ioctl("/dev/nope", &[]).unwrap_err(),
            KernelError::NoSuchDevice(_)
        ));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_registration_panics() {
        let mut reg = DevRegistry::new();
        reg.register("/dev/x", Box::new(|_| Ok(vec![])));
        reg.register("/dev/x", Box::new(|_| Ok(vec![])));
    }

    #[test]
    fn handler_errors_propagate() {
        let mut reg = DevRegistry::new();
        reg.register(
            "/dev/fail",
            Box::new(|_| Err(KernelError::BadIoctl("nope".into()))),
        );
        assert!(matches!(
            reg.ioctl("/dev/fail", &[]).unwrap_err(),
            KernelError::BadIoctl(_)
        ));
    }
}
