//! Logical specification of a storage array.

/// Logical description of an SRAM or CAM structure, before any physical
/// organization is chosen.
///
/// The paper (Table 6) describes each structure as `[Words; Bits per Word]
/// × Banks` plus its port count; CAM structures (issue queue, load/store
/// queues, cache tags) additionally support an associative search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArraySpec {
    /// Short name used in reports ("RF", "IQ", ...).
    pub name: String,
    /// Number of words (array height before organization).
    pub words: usize,
    /// Bits per word (array width before organization).
    pub bits: usize,
    /// Read ports.
    pub read_ports: usize,
    /// Write ports.
    pub write_ports: usize,
    /// Independent banks; each access touches one bank.
    pub banks: usize,
    /// Number of content-searchable tag bits (0 for a pure RAM).
    pub cam_tag_bits: usize,
    /// Number of parallel search ports for the CAM section.
    pub search_ports: usize,
}

impl ArraySpec {
    /// A pure RAM structure with one bank.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the total port count is zero.
    pub fn ram(
        name: &str,
        words: usize,
        bits: usize,
        read_ports: usize,
        write_ports: usize,
    ) -> Self {
        let s = Self {
            name: name.to_owned(),
            words,
            bits,
            read_ports,
            write_ports,
            banks: 1,
            cam_tag_bits: 0,
            search_ports: 0,
        };
        s.validate();
        s
    }

    /// A RAM+CAM structure (e.g. an issue queue whose entries are woken by a
    /// tag broadcast): `tag_bits` of each word are content-searchable through
    /// `search_ports` parallel comparisons.
    pub fn cam(
        name: &str,
        words: usize,
        bits: usize,
        read_ports: usize,
        write_ports: usize,
        tag_bits: usize,
        search_ports: usize,
    ) -> Self {
        let s = Self {
            name: name.to_owned(),
            words,
            bits,
            read_ports,
            write_ports,
            banks: 1,
            cam_tag_bits: tag_bits,
            search_ports,
        };
        s.validate();
        s
    }

    /// Builder-style bank count override.
    pub fn with_banks(mut self, banks: usize) -> Self {
        assert!(banks > 0, "banks must be positive");
        self.banks = banks;
        self
    }

    fn validate(&self) {
        assert!(self.words > 0, "{}: words must be positive", self.name);
        assert!(self.bits > 0, "{}: bits must be positive", self.name);
        assert!(
            self.total_ports() > 0,
            "{}: at least one port required",
            self.name
        );
        assert!(
            self.cam_tag_bits <= self.bits,
            "{}: tag bits cannot exceed word width",
            self.name
        );
    }

    /// Total read + write ports on the RAM cells.
    pub fn total_ports(&self) -> usize {
        self.read_ports + self.write_ports
    }

    /// Whether the structure has a content-addressable section.
    pub fn is_cam(&self) -> bool {
        self.cam_tag_bits > 0 && self.search_ports > 0
    }

    /// Storage capacity in bits (all banks).
    pub fn capacity_bits(&self) -> usize {
        self.words * self.bits * self.banks
    }
}

impl std::fmt::Display for ArraySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}; {}]", self.name, self.words, self.bits)?;
        if self.banks > 1 {
            write!(f, " x{}", self.banks)?;
        }
        write!(f, " {}R{}W", self.read_ports, self.write_ports)?;
        if self.is_cam() {
            write!(f, " CAM({} tag, {}S)", self.cam_tag_bits, self.search_ports)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ram_constructor_basics() {
        let rf = ArraySpec::ram("RF", 160, 64, 12, 6);
        assert_eq!(rf.total_ports(), 18);
        assert!(!rf.is_cam());
        assert_eq!(rf.capacity_bits(), 160 * 64);
    }

    #[test]
    fn cam_constructor_basics() {
        let iq = ArraySpec::cam("IQ", 84, 16, 6, 4, 8, 6);
        assert!(iq.is_cam());
        assert_eq!(iq.search_ports, 6);
    }

    #[test]
    fn banks_multiply_capacity() {
        let l2 = ArraySpec::ram("L2", 512, 512, 1, 1).with_banks(8);
        assert_eq!(l2.capacity_bits(), 512 * 512 * 8);
    }

    #[test]
    fn display_is_compact() {
        let rf = ArraySpec::ram("RF", 160, 64, 12, 6);
        assert_eq!(rf.to_string(), "RF [160; 64] 12R6W");
    }

    #[test]
    #[should_panic(expected = "words must be positive")]
    fn rejects_zero_words() {
        let _ = ArraySpec::ram("x", 0, 8, 1, 1);
    }

    #[test]
    #[should_panic(expected = "tag bits cannot exceed")]
    fn rejects_oversized_tag() {
        let _ = ArraySpec::cam("x", 8, 8, 1, 1, 16, 1);
    }
}
