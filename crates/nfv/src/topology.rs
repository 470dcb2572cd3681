//! CPU topology discovery and thread pinning.
//!
//! The paper's testbed pins every NF to a dedicated core via OpenNetVM's
//! core map; the threaded backend reproduces that placement policy here.
//! Topology comes from `/sys/devices/system/cpu` (online list, per-CPU
//! `topology/core_id` + `physical_package_id` + `thread_siblings_list`),
//! and pinning is a minimal direct `sched_setaffinity(2)` FFI call — no
//! crate dependency, and a *graceful* failure mode: callers are expected
//! to warn and continue unpinned when affinity is restricted (cgroup
//! cpusets, non-Linux hosts, CI sandboxes).
//!
//! The sysfs root can be overridden with the `L25GC_TOPOLOGY_ROOT`
//! environment variable; CI points it at a fixture whose CPUs do not
//! exist on the runner to exercise the denied-affinity fallback.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Environment variable overriding the sysfs CPU root (default
/// `/sys/devices/system/cpu`). Used by tests and CI to inject fake
/// topologies, including ones whose CPUs the kernel will refuse to pin.
pub const TOPOLOGY_ROOT_ENV: &str = "L25GC_TOPOLOGY_ROOT";

const DEFAULT_ROOT: &str = "/sys/devices/system/cpu";

/// One online logical CPU and where it sits in the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuInfo {
    /// Logical CPU id (the `N` in `cpuN`).
    pub cpu: u32,
    /// Physical core id within the package (`topology/core_id`).
    pub core_id: u32,
    /// Package/socket id (`topology/physical_package_id`; 0 if absent).
    pub package_id: u32,
    /// SMT sibling logical CPUs, including this one
    /// (`topology/thread_siblings_list`; `[cpu]` if absent).
    pub siblings: Vec<u32>,
}

/// Discovered CPU topology: the online logical CPUs grouped by physical core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuTopology {
    cpus: Vec<CpuInfo>,
}

/// Why topology discovery failed.
#[derive(Debug)]
pub enum TopologyError {
    /// A sysfs file could not be read.
    Io(PathBuf, std::io::Error),
    /// A sysfs file held something unparseable.
    Parse(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Io(p, e) => write!(f, "topology: cannot read {}: {e}", p.display()),
            TopologyError::Parse(msg) => write!(f, "topology: {msg}"),
        }
    }
}

impl std::error::Error for TopologyError {}

impl CpuTopology {
    /// Discover the topology of the running machine, honouring
    /// [`TOPOLOGY_ROOT_ENV`] if set.
    pub fn detect() -> Result<CpuTopology, TopologyError> {
        let root = std::env::var_os(TOPOLOGY_ROOT_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(DEFAULT_ROOT));
        Self::from_sysfs_root(&root)
    }

    /// Parse a sysfs-shaped directory: `<root>/online` plus
    /// `<root>/cpuN/topology/{core_id,physical_package_id,thread_siblings_list}`.
    /// Missing per-CPU topology files degrade to "every CPU is its own core",
    /// which is the safe assumption for pinning.
    pub fn from_sysfs_root(root: &Path) -> Result<CpuTopology, TopologyError> {
        let online_path = root.join("online");
        let online =
            fs::read_to_string(&online_path).map_err(|e| TopologyError::Io(online_path, e))?;
        let ids = parse_cpu_list(online.trim())?;
        if ids.is_empty() {
            return Err(TopologyError::Parse("online CPU list is empty".into()));
        }
        let mut cpus = Vec::with_capacity(ids.len());
        for cpu in ids {
            let topo = root.join(format!("cpu{cpu}")).join("topology");
            let core_id = read_u32(&topo.join("core_id")).unwrap_or(cpu);
            let package_id = read_u32(&topo.join("physical_package_id")).unwrap_or(0);
            let siblings = fs::read_to_string(topo.join("thread_siblings_list"))
                .ok()
                .and_then(|s| parse_cpu_list(s.trim()).ok())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| vec![cpu]);
            cpus.push(CpuInfo {
                cpu,
                core_id,
                package_id,
                siblings,
            });
        }
        Ok(CpuTopology { cpus })
    }

    /// All online logical CPUs, ascending.
    pub fn online(&self) -> &[CpuInfo] {
        &self.cpus
    }

    /// Number of online logical CPUs.
    pub fn len(&self) -> usize {
        self.cpus.len()
    }

    /// True when no CPUs were discovered.
    pub fn is_empty(&self) -> bool {
        self.cpus.is_empty()
    }

    /// True when any physical core exposes more than one hardware thread.
    pub fn smt_enabled(&self) -> bool {
        self.cpus.iter().any(|c| c.siblings.len() > 1)
    }

    /// One representative logical CPU (the lowest-numbered sibling) per
    /// distinct physical core, in ascending first-seen order. Pinning one
    /// worker per entry avoids SMT sharing.
    pub fn physical_cores(&self) -> Vec<u32> {
        let mut seen: Vec<(u32, u32)> = Vec::new();
        let mut reps = Vec::new();
        for c in &self.cpus {
            let key = (c.package_id, c.core_id);
            if !seen.contains(&key) {
                seen.push(key);
                reps.push(c.cpu);
            }
        }
        reps
    }

    /// Placement plan for `workers` shard workers plus the dispatcher.
    ///
    /// Workers round-robin over distinct physical cores; the dispatcher
    /// is only pinned when a core is left over after the workers,
    /// otherwise it floats so it never competes with a polling worker
    /// for a core.
    pub fn pin_plan(&self, workers: usize) -> PinPlan {
        let cores = self.physical_cores();
        if cores.is_empty() {
            return PinPlan {
                worker_cpus: Vec::new(),
                dispatcher: None,
            };
        }
        let worker_cpus: Vec<u32> = (0..workers).map(|i| cores[i % cores.len()]).collect();
        let dispatcher = if cores.len() > workers {
            Some(cores[workers])
        } else {
            None
        };
        PinPlan {
            worker_cpus,
            dispatcher,
        }
    }
}

/// Concrete CPU assignment produced by [`CpuTopology::pin_plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinPlan {
    /// Logical CPU for each worker, in worker order.
    pub worker_cpus: Vec<u32>,
    /// Logical CPU for the dispatcher, when one is left over.
    pub dispatcher: Option<u32>,
}

/// Parse a sysfs CPU list (`"0-3,8,10-11"`) into ascending logical ids.
pub fn parse_cpu_list(s: &str) -> Result<Vec<u32>, TopologyError> {
    let mut out = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let bad = || TopologyError::Parse(format!("bad CPU list element {part:?}"));
        match part.split_once('-') {
            Some((lo, hi)) => {
                let lo: u32 = lo.trim().parse().map_err(|_| bad())?;
                let hi: u32 = hi.trim().parse().map_err(|_| bad())?;
                if hi < lo {
                    return Err(bad());
                }
                out.extend(lo..=hi);
            }
            None => out.push(part.parse().map_err(|_| bad())?),
        }
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

fn read_u32(path: &Path) -> Option<u32> {
    fs::read_to_string(path).ok()?.trim().parse().ok()
}

/// Why pinning the current thread failed. Callers should treat every
/// variant as "warn once and run unpinned", never as fatal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PinError {
    /// Not a Linux host; `sched_setaffinity` is unavailable.
    Unsupported,
    /// The kernel rejected the affinity mask (errno + message). `EINVAL`
    /// here usually means the CPU is offline or outside the cgroup cpuset;
    /// `EPERM` means the sandbox forbids changing affinity.
    Os(i32, String),
}

impl fmt::Display for PinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinError::Unsupported => write!(f, "thread pinning unsupported on this platform"),
            PinError::Os(errno, msg) => {
                write!(f, "sched_setaffinity failed (errno {errno}): {msg}")
            }
        }
    }
}

impl std::error::Error for PinError {}

/// Pin the calling thread to a single logical CPU.
///
/// On failure the thread keeps its previous affinity — this is a pure
/// no-op plus an error, so the caller can log and continue.
pub fn pin_current_thread(cpu: u32) -> Result<(), PinError> {
    imp::pin_current_thread(cpu)
}

#[cfg(target_os = "linux")]
mod imp {
    use super::PinError;

    // Matches the kernel's 1024-bit cpu_set_t without pulling in libc as a
    // crate dependency; std already links the C library.
    const SET_BITS: usize = 1024;
    const WORD_BITS: usize = usize::BITS as usize;
    const WORDS: usize = SET_BITS / WORD_BITS;

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const usize) -> i32;
    }

    pub fn pin_current_thread(cpu: u32) -> Result<(), PinError> {
        let bit = cpu as usize;
        if bit >= SET_BITS {
            return Err(PinError::Os(
                22,
                format!("cpu {cpu} exceeds cpu_set_t width"),
            ));
        }
        let mut mask = [0usize; WORDS];
        mask[bit / WORD_BITS] = 1usize << (bit % WORD_BITS);
        // pid 0 targets the calling thread.
        let rc =
            unsafe { sched_setaffinity(0, WORDS * std::mem::size_of::<usize>(), mask.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            let err = std::io::Error::last_os_error();
            Err(PinError::Os(
                err.raw_os_error().unwrap_or(-1),
                err.to_string(),
            ))
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::PinError;

    pub fn pin_current_thread(_cpu: u32) -> Result<(), PinError> {
        Err(PinError::Unsupported)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(dir: &Path, online: &str, cpus: &[(u32, u32, u32, &str)]) {
        fs::create_dir_all(dir).unwrap();
        fs::write(dir.join("online"), online).unwrap();
        for (cpu, core, pkg, sib) in cpus {
            let topo = dir.join(format!("cpu{cpu}")).join("topology");
            fs::create_dir_all(&topo).unwrap();
            fs::write(topo.join("core_id"), format!("{core}\n")).unwrap();
            fs::write(topo.join("physical_package_id"), format!("{pkg}\n")).unwrap();
            fs::write(topo.join("thread_siblings_list"), format!("{sib}\n")).unwrap();
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("l25gc-topo-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn parses_cpu_list_forms() {
        assert_eq!(parse_cpu_list("0").unwrap(), vec![0]);
        assert_eq!(parse_cpu_list("0-3").unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(parse_cpu_list("0-1,4,6-7").unwrap(), vec![0, 1, 4, 6, 7]);
        assert_eq!(parse_cpu_list("3,1,1-2").unwrap(), vec![1, 2, 3]);
        assert!(parse_cpu_list("3-1").is_err());
        assert!(parse_cpu_list("x").is_err());
    }

    #[test]
    fn smt_pairs_collapse_to_physical_cores() {
        let d = tmpdir("smt");
        fixture(
            &d,
            "0-3\n",
            &[
                (0, 0, 0, "0,2"),
                (1, 1, 0, "1,3"),
                (2, 0, 0, "0,2"),
                (3, 1, 0, "1,3"),
            ],
        );
        let topo = CpuTopology::from_sysfs_root(&d).unwrap();
        assert_eq!(topo.len(), 4);
        assert!(topo.smt_enabled());
        assert_eq!(topo.physical_cores(), vec![0, 1]);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn pin_plan_round_robins_and_reserves_dispatcher_core() {
        let d = tmpdir("plan");
        fixture(
            &d,
            "0-3\n",
            &[
                (0, 0, 0, "0"),
                (1, 1, 0, "1"),
                (2, 2, 0, "2"),
                (3, 3, 0, "3"),
            ],
        );
        let topo = CpuTopology::from_sysfs_root(&d).unwrap();
        // Fewer workers than cores: dispatcher gets the next spare core.
        let plan = topo.pin_plan(2);
        assert_eq!(plan.worker_cpus, vec![0, 1]);
        assert_eq!(plan.dispatcher, Some(2));
        // More workers than cores: round-robin, dispatcher floats.
        let plan = topo.pin_plan(6);
        assert_eq!(plan.worker_cpus, vec![0, 1, 2, 3, 0, 1]);
        assert_eq!(plan.dispatcher, None);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn restricted_fixture_plans_its_two_absent_cpus() {
        let root = Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/restricted-topology"
        ));
        let topo = CpuTopology::from_sysfs_root(root).unwrap();
        let plan = topo.pin_plan(2);
        assert_eq!(plan.worker_cpus, vec![512, 513]);
        assert_eq!(plan.dispatcher, None);
    }

    #[test]
    fn missing_topology_files_degrade_to_one_core_per_cpu() {
        let d = tmpdir("bare");
        fs::create_dir_all(&d).unwrap();
        fs::write(d.join("online"), "0-1\n").unwrap();
        let topo = CpuTopology::from_sysfs_root(&d).unwrap();
        assert_eq!(topo.physical_cores(), vec![0, 1]);
        assert!(!topo.smt_enabled());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn pinning_nonexistent_cpu_fails_gracefully() {
        // CPU 1023 is valid for the mask but (virtually always) offline, and
        // CPU 4096 exceeds cpu_set_t entirely; both must return Err, never
        // panic — the caller's fallback path depends on it.
        if cfg!(target_os = "linux") {
            assert!(pin_current_thread(1023).is_err());
        }
        assert!(pin_current_thread(4096).is_err());
    }

    #[test]
    fn detect_on_real_sysfs_or_env_override() {
        let d = tmpdir("detect");
        fixture(&d, "0\n", &[(0, 0, 0, "0")]);
        // from_sysfs_root is the env-override code path minus the env read.
        let topo = CpuTopology::from_sysfs_root(&d).unwrap();
        assert_eq!(topo.online()[0].cpu, 0);
        let _ = fs::remove_dir_all(&d);
    }
}
