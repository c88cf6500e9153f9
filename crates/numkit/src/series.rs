//! Labelled time-series container shared by ODE observers, the simulator's
//! population tracker and the experiment harness.

use crate::error::NumError;
use crate::interp::LinearInterp;
use std::fmt::Write;

/// A time-indexed multi-channel series: one time column, `k` named channels.
///
/// Rows must be appended in non-decreasing time order; channel count is fixed
/// at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    names: Vec<String>,
    times: Vec<f64>,
    /// Row-major: `values[row * channels + ch]`.
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series with the given channel names.
    ///
    /// # Errors
    /// Returns [`NumError::InvalidInput`] when no channels are supplied.
    pub fn new<S: Into<String>>(names: Vec<S>) -> Result<Self, NumError> {
        if names.is_empty() {
            return Err(NumError::InvalidInput {
                what: "TimeSeries::new",
                detail: "need at least one channel".into(),
            });
        }
        Ok(Self {
            names: names.into_iter().map(Into::into).collect(),
            times: Vec::new(),
            values: Vec::new(),
        })
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.names.len()
    }

    /// Channel names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of recorded rows.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the series has no rows yet.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Appends one row.
    ///
    /// # Errors
    /// Returns [`NumError::InvalidInput`] if the row width is wrong or time
    /// went backwards.
    pub fn push(&mut self, t: f64, row: &[f64]) -> Result<(), NumError> {
        if row.len() != self.channels() {
            return Err(NumError::InvalidInput {
                what: "TimeSeries::push",
                detail: format!("row has {} values, expected {}", row.len(), self.channels()),
            });
        }
        if let Some(&last) = self.times.last() {
            if t < last {
                return Err(NumError::InvalidInput {
                    what: "TimeSeries::push",
                    detail: format!("time went backwards: {t} < {last}"),
                });
            }
        }
        self.times.push(t);
        self.values.extend_from_slice(row);
        Ok(())
    }

    /// The time column.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The raw row-major value buffer (`values[row * channels + ch]`), for
    /// checkpointing. Inverse of [`TimeSeries::from_raw`].
    pub fn raw_values(&self) -> &[f64] {
        &self.values
    }

    /// Rebuilds a series from raw columns captured via
    /// [`TimeSeries::names`], [`TimeSeries::times`] and
    /// [`TimeSeries::raw_values`].
    ///
    /// # Errors
    /// Returns [`NumError::InvalidInput`] when no channels are supplied or
    /// `values.len() != times.len() * names.len()`.
    pub fn from_raw(
        names: Vec<String>,
        times: Vec<f64>,
        values: Vec<f64>,
    ) -> Result<Self, NumError> {
        if names.is_empty() {
            return Err(NumError::InvalidInput {
                what: "TimeSeries::from_raw",
                detail: "need at least one channel".into(),
            });
        }
        if values.len() != times.len() * names.len() {
            return Err(NumError::InvalidInput {
                what: "TimeSeries::from_raw",
                detail: format!(
                    "value buffer has {} entries, expected {} rows × {} channels",
                    values.len(),
                    times.len(),
                    names.len()
                ),
            });
        }
        Ok(Self {
            names,
            times,
            values,
        })
    }

    /// Copies out channel `ch` as a dense vector.
    ///
    /// This copies the whole column, O(rows), on every call: a loop over
    /// rows should read each row through [`TimeSeries::row`] instead.
    ///
    /// # Panics
    /// Panics when `ch` is out of range (programming error).
    pub fn channel(&self, ch: usize) -> Vec<f64> {
        assert!(ch < self.channels(), "channel {ch} out of range");
        self.times
            .iter()
            .enumerate()
            .map(|(row, _)| self.values[row * self.channels() + ch])
            .collect()
    }

    /// Row `i` as a borrowed slice of its `channels()` values.
    ///
    /// # Panics
    /// Panics when `i` is out of range (programming error).
    pub fn row(&self, i: usize) -> &[f64] {
        let k = self.channels();
        &self.values[i * k..(i + 1) * k]
    }

    /// Looks a channel up by name.
    pub fn channel_by_name(&self, name: &str) -> Option<Vec<f64>> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|ch| self.channel(ch))
    }

    /// The last row, if any, as `(t, values)`.
    pub fn last(&self) -> Option<(f64, &[f64])> {
        if self.is_empty() {
            return None;
        }
        let row = self.len() - 1;
        Some((self.times[row], self.row(row)))
    }

    /// Builds a linear interpolant for one channel (requires ≥ 2 rows with
    /// strictly increasing times; duplicate time stamps are collapsed,
    /// keeping the last value).
    ///
    /// # Errors
    /// Propagates [`LinearInterp::new`] errors (e.g. fewer than two distinct
    /// times).
    pub fn interpolant(&self, ch: usize) -> Result<LinearInterp, NumError> {
        let ys = self.channel(ch);
        // Deduplicate equal consecutive timestamps, keeping the last sample.
        let mut xs_d = Vec::with_capacity(self.times.len());
        let mut ys_d = Vec::with_capacity(self.times.len());
        for (&t, &y) in self.times.iter().zip(&ys) {
            if xs_d.last() == Some(&t) {
                *ys_d.last_mut().expect("parallel vec") = y;
            } else {
                xs_d.push(t);
                ys_d.push(y);
            }
        }
        LinearInterp::new(&xs_d, &ys_d)
    }

    /// Renders the series as CSV with a header row (`t,<names...>`).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(32 * (self.len() + 1));
        out.push('t');
        for n in &self.names {
            out.push(',');
            out.push_str(n);
        }
        out.push('\n');
        for (i, &t) in self.times.iter().enumerate() {
            // Writing into a `String` cannot fail.
            let _ = write!(out, "{t}");
            for v in self.row(i) {
                let _ = write!(out, ",{v}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimeSeries {
        let mut s = TimeSeries::new(vec!["x", "y"]).unwrap();
        s.push(0.0, &[1.0, 2.0]).unwrap();
        s.push(1.0, &[3.0, 4.0]).unwrap();
        s.push(2.0, &[5.0, 6.0]).unwrap();
        s
    }

    #[test]
    fn push_and_read_back() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.channels(), 2);
        assert_eq!(s.channel(0), vec![1.0, 3.0, 5.0]);
        assert_eq!(s.channel(1), vec![2.0, 4.0, 6.0]);
        assert_eq!(s.times(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn row_borrows_one_row() {
        let s = sample();
        assert_eq!(s.row(0), &[1.0, 2.0]);
        assert_eq!(s.row(2), &[5.0, 6.0]);
        for i in 0..s.len() {
            for ch in 0..s.channels() {
                assert_eq!(s.row(i)[ch].to_bits(), s.channel(ch)[i].to_bits());
            }
        }
    }

    #[test]
    fn channel_by_name() {
        let s = sample();
        assert_eq!(s.channel_by_name("y").unwrap(), vec![2.0, 4.0, 6.0]);
        assert!(s.channel_by_name("z").is_none());
    }

    #[test]
    fn rejects_bad_rows() {
        let mut s = sample();
        assert!(s.push(3.0, &[1.0]).is_err());
        assert!(s.push(1.5, &[0.0, 0.0]).is_err()); // time goes backwards
    }

    #[test]
    fn rejects_empty_channels() {
        assert!(TimeSeries::new(Vec::<String>::new()).is_err());
    }

    #[test]
    fn last_row() {
        let s = sample();
        let (t, row) = s.last().unwrap();
        assert_eq!(t, 2.0);
        assert_eq!(row, &[5.0, 6.0]);
        let empty = TimeSeries::new(vec!["a"]).unwrap();
        assert!(empty.last().is_none());
    }

    #[test]
    fn interpolant_works() {
        let s = sample();
        let f = s.interpolant(0).unwrap();
        assert!((f.eval(0.5) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn interpolant_collapses_duplicate_times() {
        let mut s = TimeSeries::new(vec!["x"]).unwrap();
        s.push(0.0, &[1.0]).unwrap();
        s.push(0.0, &[2.0]).unwrap(); // same stamp, keep last
        s.push(1.0, &[3.0]).unwrap();
        let f = s.interpolant(0).unwrap();
        assert_eq!(f.eval(0.0), 2.0);
        assert_eq!(f.eval(1.0), 3.0);
    }

    #[test]
    fn csv_round_shape() {
        let s = sample();
        let csv = s.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "t,x,y");
        assert_eq!(lines.next().unwrap(), "0,1,2");
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn channel_out_of_range_panics() {
        let s = sample();
        let _ = s.channel(5);
    }
}
