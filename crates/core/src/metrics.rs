//! Multiclass evaluation metrics: precision, recall, F1 (paper Eq. 23–25),
//! per class and weighted-average (the paper's "Weighted Avg" rows).

/// Confusion matrix over `k` classes: `m[true][pred]`.
#[derive(Clone, Debug)]
pub struct ConfusionMatrix {
    k: usize,
    m: Vec<usize>,
}

impl ConfusionMatrix {
    /// Build from parallel true/predicted class-index slices.
    ///
    /// # Panics
    /// Panics on length mismatch or out-of-range class index.
    pub fn from_predictions(k: usize, y_true: &[usize], y_pred: &[usize]) -> Self {
        assert_eq!(y_true.len(), y_pred.len(), "prediction length mismatch");
        let mut m = vec![0usize; k * k];
        for (&t, &p) in y_true.iter().zip(y_pred) {
            assert!(t < k && p < k, "class index out of range");
            m[t * k + p] += 1;
        }
        Self { k, m }
    }

    /// Count of samples with true class `t` predicted as `p`.
    pub fn count(&self, t: usize, p: usize) -> usize {
        self.m[t * self.k + p]
    }

    /// Number of samples whose true class is `c`.
    pub fn support(&self, c: usize) -> usize {
        (0..self.k).map(|p| self.count(c, p)).sum()
    }

    pub fn total(&self) -> usize {
        self.m.iter().sum()
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let correct: usize = (0..self.k).map(|c| self.count(c, c)).sum();
        if self.total() == 0 {
            0.0
        } else {
            correct as f64 / self.total() as f64
        }
    }

    /// Precision of class `c`: TP / (TP + FP); 0 when nothing was predicted
    /// as `c`.
    pub fn precision(&self, c: usize) -> f64 {
        let tp = self.count(c, c);
        let predicted: usize = (0..self.k).map(|t| self.count(t, c)).sum();
        if predicted == 0 {
            0.0
        } else {
            tp as f64 / predicted as f64
        }
    }

    /// Recall of class `c`: TP / (TP + FN); 0 for an empty class.
    pub fn recall(&self, c: usize) -> f64 {
        let tp = self.count(c, c);
        let support = self.support(c);
        if support == 0 {
            0.0
        } else {
            tp as f64 / support as f64
        }
    }

    /// F1 of class `c`: harmonic mean of precision and recall.
    pub fn f1(&self, c: usize) -> f64 {
        let p = self.precision(c);
        let r = self.recall(c);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Full per-class + weighted-average report.
    pub fn report(&self) -> ClassificationReport {
        let per_class: Vec<ClassMetrics> = (0..self.k)
            .map(|c| ClassMetrics {
                precision: self.precision(c),
                recall: self.recall(c),
                f1: self.f1(c),
                support: self.support(c),
            })
            .collect();
        let total = self.total().max(1) as f64;
        let weighted = |f: &dyn Fn(&ClassMetrics) -> f64| -> f64 {
            per_class
                .iter()
                .map(|m| f(m) * m.support as f64)
                .sum::<f64>()
                / total
        };
        ClassificationReport {
            weighted_precision: weighted(&|m| m.precision),
            weighted_recall: weighted(&|m| m.recall),
            weighted_f1: weighted(&|m| m.f1),
            macro_f1: per_class.iter().map(|m| m.f1).sum::<f64>() / self.k.max(1) as f64,
            accuracy: self.accuracy(),
            per_class,
            skipped: 0,
        }
    }
}

/// Precision/recall/F1/support for one class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassMetrics {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    pub support: usize,
}

/// The paper's per-class table rows plus aggregate rows.
#[derive(Clone, Debug)]
pub struct ClassificationReport {
    pub per_class: Vec<ClassMetrics>,
    pub weighted_precision: f64,
    pub weighted_recall: f64,
    pub weighted_f1: f64,
    pub macro_f1: f64,
    pub accuracy: f64,
    /// Records that could not be scored (e.g. empty transaction history →
    /// no embedding sequence). They appear in no class's support.
    pub skipped: usize,
}

impl ClassificationReport {
    /// Render in the paper's table layout with the given class names.
    pub fn to_table(&self, class_names: &[&str]) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<14} {:>9} {:>9} {:>9} {:>8}\n",
            "Type", "Precision", "Recall", "F1-score", "Support"
        ));
        for (i, m) in self.per_class.iter().enumerate() {
            let name = class_names.get(i).copied().unwrap_or("?");
            s.push_str(&format!(
                "{:<14} {:>9.4} {:>9.4} {:>9.4} {:>8}\n",
                name, m.precision, m.recall, m.f1, m.support
            ));
        }
        s.push_str(&format!(
            "{:<14} {:>9.4} {:>9.4} {:>9.4} {:>8}\n",
            "Weighted Avg",
            self.weighted_precision,
            self.weighted_recall,
            self.weighted_f1,
            self.per_class.iter().map(|m| m.support).sum::<usize>()
        ));
        if self.skipped > 0 {
            s.push_str(&format!(
                "({} record(s) skipped: no scoreable history)\n",
                self.skipped
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let cm = ConfusionMatrix::from_predictions(3, &[0, 1, 2, 1], &[0, 1, 2, 1]);
        assert_eq!(cm.accuracy(), 1.0);
        for c in 0..3 {
            assert_eq!(cm.f1(c), 1.0);
        }
        let r = cm.report();
        assert_eq!(r.weighted_f1, 1.0);
    }

    #[test]
    fn known_confusion_values() {
        // true:  0 0 0 1 1
        // pred:  0 0 1 1 0
        let cm = ConfusionMatrix::from_predictions(2, &[0, 0, 0, 1, 1], &[0, 0, 1, 1, 0]);
        // class0: tp=2, fp=1 (one true-1 predicted 0), fn=1
        assert!((cm.precision(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((cm.recall(0) - 2.0 / 3.0).abs() < 1e-12);
        // class1: tp=1, fp=1, fn=1
        assert!((cm.precision(1) - 0.5).abs() < 1e-12);
        assert!((cm.recall(1) - 0.5).abs() < 1e-12);
        assert!((cm.accuracy() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_class_yields_zero_not_nan() {
        // class 2 never appears in truth or predictions
        let cm = ConfusionMatrix::from_predictions(3, &[0, 1], &[0, 1]);
        assert_eq!(cm.precision(2), 0.0);
        assert_eq!(cm.recall(2), 0.0);
        assert_eq!(cm.f1(2), 0.0);
        assert!(cm.report().weighted_f1.is_finite());
    }

    #[test]
    fn weighted_average_uses_support() {
        // class 0: 3 samples all correct; class 1: 1 sample wrong.
        let cm = ConfusionMatrix::from_predictions(2, &[0, 0, 0, 1], &[0, 0, 0, 0]);
        let r = cm.report();
        // weighted recall = (1.0*3 + 0.0*1)/4
        assert!((r.weighted_recall - 0.75).abs() < 1e-12);
        assert_eq!(r.per_class[0].support, 3);
        assert_eq!(r.per_class[1].support, 1);
    }

    #[test]
    fn f1_is_harmonic_mean() {
        let cm = ConfusionMatrix::from_predictions(2, &[0, 0, 1, 1], &[0, 1, 1, 1]);
        // class1: p=2/3, r=1 -> f1=0.8
        assert!((cm.f1(1) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn table_rendering_contains_rows() {
        let cm = ConfusionMatrix::from_predictions(2, &[0, 1], &[0, 1]);
        let table = cm.report().to_table(&["Exchange", "Mining"]);
        assert!(table.contains("Exchange"));
        assert!(table.contains("Weighted Avg"));
        assert!(!table.contains("skipped"));
    }

    #[test]
    fn skipped_records_are_reported_but_not_scored() {
        let cm = ConfusionMatrix::from_predictions(2, &[0, 1], &[0, 1]);
        let mut r = cm.report();
        assert_eq!(r.skipped, 0, "report() itself never skips");
        r.skipped = 3;
        assert_eq!(r.accuracy, 1.0, "skipped must not affect scores");
        assert!(r.to_table(&["A", "B"]).contains("3 record(s) skipped"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let _ = ConfusionMatrix::from_predictions(2, &[0], &[0, 1]);
    }
}
