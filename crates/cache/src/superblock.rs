//! The superblock each tree keeps in its device's reserved prefix: a frame
//! around magic, version, the tree's own fields and the pager's allocator
//! state. [`Superblock`] writes and checks the envelope; each tree
//! supplies only its own fields.

use crate::pager::{Pager, PagerError};
use dam_kv::codec::{frame, frame_into_slot, unframe, Reader, Writer, FRAME_OVERHEAD};
use dam_kv::KvError;

/// How a superblock image moves between the pager and the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuperblockIo {
    /// The image is zero-padded to the whole reserved prefix and written
    /// and read through the pager: one reserved-size IO each way.
    Slot,
    /// Only the framed prefix is written, and open reads the reserved
    /// region straight from the device, bypassing the cache. For a large
    /// region (the LSM manifest's 1 MiB), so a sync does not write all of
    /// it and open does not evict useful pages.
    Prefix,
}

/// One tree kind's superblock format.
#[derive(Debug, Clone, Copy)]
pub struct Superblock {
    /// Identifies the tree kind; open rejects any other.
    pub magic: u32,
    /// Format version; open rejects any other.
    pub version: u8,
    /// Names the superblock in errors.
    pub label: &'static str,
    /// How the image reaches the device.
    pub io: SuperblockIo,
}

impl Superblock {
    fn corrupt(&self, what: impl std::fmt::Display) -> KvError {
        KvError::Corrupt(format!("{}: {what}", self.label))
    }

    /// Durably write the superblock at offset 0: magic, version, what
    /// `fields` encodes, then `pager`'s allocator state. A payload larger
    /// than the reserved prefix is [`KvError::Config`] and writes nothing.
    pub fn write(
        &self,
        pager: &mut Pager,
        fields: impl FnOnce(&mut Writer),
    ) -> Result<(), KvError> {
        let reserved = pager.alloc.reserved();
        let mut w = Writer::with_capacity(4096);
        w.put_u32(self.magic);
        w.put_u8(self.version);
        fields(&mut w);
        pager.alloc.encode(&mut w);
        let payload = w.into_bytes();
        if (payload.len() + FRAME_OVERHEAD) as u64 > reserved {
            return Err(KvError::Config(format!(
                "{} of {} bytes exceeds the reserved {reserved}",
                self.label,
                payload.len()
            )));
        }
        let image = match self.io {
            SuperblockIo::Slot => frame_into_slot(&payload, reserved as usize),
            SuperblockIo::Prefix => frame(&payload),
        };
        Ok(pager.write_through(0, image)?)
    }

    /// Read back what [`Superblock::write`] left: check frame, magic and
    /// version, decode the tree's fields with `fields`, then restore
    /// `pager`'s allocator state. Everything read off the device that does
    /// not check out is [`KvError::Corrupt`]; other errors from `fields`
    /// (a shape mismatch with the caller's config) pass through.
    pub fn read<T>(
        &self,
        pager: &mut Pager,
        fields: impl FnOnce(&mut Reader<'_>) -> Result<T, KvError>,
    ) -> Result<T, KvError> {
        let reserved = pager.alloc.reserved() as usize;
        let (page, direct);
        let image: &[u8] = match self.io {
            SuperblockIo::Slot => {
                page = pager.read(0, reserved)?;
                &page
            }
            SuperblockIo::Prefix => {
                let mut buf = vec![0u8; reserved];
                pager
                    .device()
                    .read(0, &mut buf, pager.now())
                    .map_err(PagerError::Io)?;
                direct = buf;
                &direct
            }
        };
        let mut r = Reader::new(unframe(image).map_err(|e| self.corrupt(e))?);
        if r.get_u32().map_err(|e| self.corrupt(e))? != self.magic {
            return Err(self.corrupt("bad magic (none persisted on this device?)"));
        }
        if r.get_u8().map_err(|e| self.corrupt(e))? != self.version {
            return Err(self.corrupt("unsupported version"));
        }
        let out = fields(&mut r).map_err(|e| match e {
            KvError::Corrupt(what) => self.corrupt(what),
            other => other,
        })?;
        pager.alloc.decode(&mut r).map_err(|e| self.corrupt(e))?;
        Ok(out)
    }
}
