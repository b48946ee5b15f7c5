//! Uplink/downlink traffic accounting.
//!
//! Every model transfer in a simulation is charged here; the cumulative
//! series is the x-axis of the paper's Fig. 4/5/7 and the totals populate
//! Table 2.

/// Uplink and downlink byte totals of one run.
#[derive(Clone, Debug, Default)]
pub struct TrafficMeter {
    uplink: u64,
    downlink: u64,
}

impl TrafficMeter {
    /// Records a client → server transfer.
    pub fn record_upload(&mut self, bytes: usize) {
        self.uplink += bytes as u64;
    }

    /// Records a server → client transfer.
    pub fn record_download(&mut self, bytes: usize) {
        self.downlink += bytes as u64;
    }

    /// Total client → server bytes.
    pub fn uplink_bytes(&self) -> u64 {
        self.uplink
    }

    /// Total server → client bytes.
    pub fn downlink_bytes(&self) -> u64 {
        self.downlink
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate() {
        let mut m = TrafficMeter::default();
        m.record_upload(100);
        m.record_upload(200);
        m.record_download(50);
        assert_eq!(m.uplink_bytes(), 300);
        assert_eq!(m.downlink_bytes(), 50);
    }
}
