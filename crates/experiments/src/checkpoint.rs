//! Crash-safe suite checkpoints.
//!
//! A suite run is a bag of deterministic jobs; killing it halfway used to
//! discard everything. This module persists each job's rendered output the
//! moment its last cell completes, so `suite --resume` replays finished
//! work from disk and re-executes only what is missing or failed.
//!
//! # Granularity
//!
//! The unit of checkpointing is one *job* (figure/table): cell parts are
//! typed in-memory values merged by the job's reducer, so the durable form
//! of "these cells are done" is the job's reduced output. A job whose
//! cells all completed is replayed byte-for-byte from the checkpoint; a
//! job interrupted mid-flight (or with failed cells) re-runs all of its
//! cells — each cell's seed is a pure function of its identity, so the
//! re-run merges into exactly the bytes the uninterrupted run would have
//! produced.
//!
//! # Crash safety
//!
//! Every write is write-temp-then-rename on the same directory, so a
//! `kill -9` leaves either the old file or the new file, never a torn one.
//! The manifest is rewritten (atomically) after each job lands; a job file
//! not yet recorded in the manifest is simply ignored on resume.
//!
//! # Keying
//!
//! A checkpoint is only valid for the exact run configuration that wrote
//! it. The manifest records `(code version, base seed, scale, filter)`;
//! any mismatch on resume discards the checkpoint rather than risk mixing
//! outputs across configurations. The code version comes from
//! `git describe --always --dirty` when available.

use simcore::json::{Field, Json};
use simcore::rng::fnv1a;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The run configuration a checkpoint is keyed on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptKey {
    /// `git describe --always --dirty`, or `"unversioned"`.
    pub version: String,
    /// Base seed.
    pub seed: u64,
    /// Scale label (`smoke`/`quick`/`paper`).
    pub scale: String,
    /// Filter string (empty for a full run).
    pub filter: String,
}

impl CkptKey {
    /// The current code version for keying (best effort; a missing `git`
    /// binary or repo degrades to a constant, which still protects the
    /// common seed/scale/filter mismatches).
    pub fn current_version() -> String {
        std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unversioned".to_string())
    }
}

/// One checkpointed job entry.
#[derive(Debug, Clone)]
struct JobEntry {
    file: String,
    bytes: u64,
    fnv: u64,
}

/// An open checkpoint directory.
#[derive(Debug)]
pub struct Checkpoint {
    dir: PathBuf,
    key: CkptKey,
    jobs: BTreeMap<String, JobEntry>,
}

/// Atomically replaces `path` with `bytes` (write temp + rename).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

impl Checkpoint {
    /// Opens (creating if needed) a checkpoint directory for this key,
    /// starting empty: any existing manifest is superseded on the first
    /// [`Checkpoint::record`].
    pub fn create(dir: impl Into<PathBuf>, key: CkptKey) -> std::io::Result<Checkpoint> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Checkpoint {
            dir,
            key,
            jobs: BTreeMap::new(),
        })
    }

    /// Opens a checkpoint directory for resuming. Returns the checkpoint
    /// plus the set of jobs it can replay; a missing, unparsable, or
    /// mismatched-key manifest yields an empty (but still writable)
    /// checkpoint and a human-readable note saying why.
    pub fn resume(
        dir: impl Into<PathBuf>,
        key: CkptKey,
    ) -> std::io::Result<(Checkpoint, Option<String>)> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let manifest = dir.join("MANIFEST.json");
        let text = match fs::read_to_string(&manifest) {
            Ok(t) => t,
            Err(_) => {
                return Ok((
                    Checkpoint {
                        dir,
                        key,
                        jobs: BTreeMap::new(),
                    },
                    Some("no checkpoint manifest; starting fresh".into()),
                ))
            }
        };
        let mut ck = Checkpoint {
            dir,
            key,
            jobs: BTreeMap::new(),
        };
        match ck.parse_manifest(&text) {
            Ok(()) => Ok((ck, None)),
            Err(why) => {
                ck.jobs.clear();
                Ok((ck, Some(why)))
            }
        }
    }

    fn parse_manifest(&mut self, text: &str) -> Result<(), String> {
        let corrupt = |e: String| format!("corrupt manifest: {e}");
        let doc = Json::parse(text).map_err(|e| corrupt(e.to_string()))?;
        let doc = Field::root(&doc);
        let read = || -> Result<(CkptKey, BTreeMap<String, JobEntry>), String> {
            let s = |k| doc.get(k)?.str().map(str::to_string);
            let key = CkptKey {
                version: s("version")?,
                seed: doc.get("seed")?.u64()?,
                scale: s("scale")?,
                filter: s("filter")?,
            };
            let jobs = doc.get("jobs")?;
            let Json::Obj(map) = jobs.json() else {
                return Err("jobs not an object".into());
            };
            let mut entries = BTreeMap::new();
            for name in map.keys() {
                let e = jobs.get(name)?;
                let file = e.get("file")?.str()?.to_string();
                let (bytes, fnv) = (e.get("bytes")?.u64()?, e.get("fnv")?.u64()?);
                entries.insert(name.clone(), JobEntry { file, bytes, fnv });
            }
            Ok((key, entries))
        };
        let (on_disk, jobs) = read().map_err(corrupt)?;
        if on_disk != self.key {
            return Err(format!(
                "checkpoint key mismatch (have {:?}, want {:?}); starting fresh",
                on_disk, self.key
            ));
        }
        self.jobs = jobs;
        Ok(())
    }

    /// Loads one job's checkpointed output, verifying size and hash.
    /// `None` means the job must re-execute (absent, torn, or tampered).
    pub fn load(&self, job: &str) -> Option<String> {
        let entry = self.jobs.get(job)?;
        let bytes = fs::read(self.dir.join(&entry.file)).ok()?;
        if bytes.len() as u64 != entry.bytes || fnv1a(bytes.iter().copied()) != entry.fnv {
            return None;
        }
        String::from_utf8(bytes).ok()
    }

    /// Records one finished job: writes its output atomically, then
    /// rewrites the manifest atomically. After this returns, a kill at any
    /// point leaves the job replayable.
    pub fn record(&mut self, job: &str, output: &str) -> std::io::Result<()> {
        let file = format!("{job}.out");
        atomic_write(&self.dir.join(&file), output.as_bytes())?;
        self.jobs.insert(
            job.to_string(),
            JobEntry {
                file,
                bytes: output.len() as u64,
                fnv: fnv1a(output.bytes()),
            },
        );
        self.write_manifest()
    }

    fn write_manifest(&self) -> std::io::Result<()> {
        let jobs = Json::Obj(
            self.jobs
                .iter()
                .map(|(name, e)| {
                    (
                        name.clone(),
                        Json::obj([
                            ("file", e.file.as_str().into()),
                            ("bytes", Json::Uint(e.bytes)),
                            ("fnv", Json::Uint(e.fnv)),
                        ]),
                    )
                })
                .collect(),
        );
        let doc = Json::obj([
            ("version", self.key.version.as_str().into()),
            ("seed", Json::Uint(self.key.seed)),
            ("scale", self.key.scale.as_str().into()),
            ("filter", self.key.filter.as_str().into()),
            ("jobs", jobs),
        ]);
        atomic_write(&self.dir.join("MANIFEST.json"), doc.render().as_bytes())
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Names of jobs the checkpoint can replay.
    pub fn replayable(&self) -> Vec<String> {
        self.jobs.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vsched_ckpt_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn key() -> CkptKey {
        CkptKey {
            version: "test-v1".into(),
            seed: 42,
            scale: "smoke".into(),
            filter: "fig03".into(),
        }
    }

    #[test]
    fn record_then_resume_replays() {
        let dir = tmpdir("roundtrip");
        let mut ck = Checkpoint::create(&dir, key()).unwrap();
        ck.record("fig03", "fig03 output\nline 2\n").unwrap();
        ck.record("fig11", "fig11 output\n").unwrap();

        let (resumed, note) = Checkpoint::resume(&dir, key()).unwrap();
        assert_eq!(note, None);
        assert_eq!(
            resumed.load("fig03").as_deref(),
            Some("fig03 output\nline 2\n")
        );
        assert_eq!(resumed.load("fig11").as_deref(), Some("fig11 output\n"));
        assert_eq!(resumed.load("fig12"), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_discards_checkpoint() {
        let dir = tmpdir("keymismatch");
        let mut ck = Checkpoint::create(&dir, key()).unwrap();
        ck.record("fig03", "output").unwrap();
        for other in [
            CkptKey { seed: 43, ..key() },
            CkptKey {
                scale: "quick".into(),
                ..key()
            },
            CkptKey {
                filter: String::new(),
                ..key()
            },
            CkptKey {
                version: "test-v2".into(),
                ..key()
            },
        ] {
            let (resumed, note) = Checkpoint::resume(&dir, other).unwrap();
            assert!(note.unwrap().contains("mismatch"));
            assert_eq!(resumed.load("fig03"), None);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_job_file_re_executes() {
        let dir = tmpdir("tamper");
        let mut ck = Checkpoint::create(&dir, key()).unwrap();
        ck.record("fig03", "pristine output").unwrap();
        fs::write(dir.join("fig03.out"), "tampered").unwrap();
        let (resumed, _) = Checkpoint::resume(&dir, key()).unwrap();
        assert_eq!(resumed.load("fig03"), None, "hash mismatch must not replay");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_starts_fresh_but_stays_writable() {
        let dir = tmpdir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("MANIFEST.json"), "{not json").unwrap();
        let (mut ck, note) = Checkpoint::resume(&dir, key()).unwrap();
        assert!(note.unwrap().contains("corrupt"));
        assert!(ck.replayable().is_empty());
        ck.record("fig03", "fresh").unwrap();
        let (resumed, note) = Checkpoint::resume(&dir, key()).unwrap();
        assert_eq!(note, None);
        assert_eq!(resumed.load("fig03").as_deref(), Some("fresh"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_content() {
        let dir = tmpdir("atomic");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("x.out");
        atomic_write(&p, b"one").unwrap();
        atomic_write(&p, b"two").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"two");
        assert!(!p.with_extension("tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
