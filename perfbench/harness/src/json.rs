//! A minimal JSON object writer. The harness emits only numbers,
//! booleans, fixed ASCII strings, arrays of numbers and nested objects,
//! so nothing here needs escaping.

use std::fmt::Write as _;

/// One JSON object under construction.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{k}\":");
    }

    fn push_num(&mut self, v: f64) {
        if v.is_finite() {
            let _ = write!(self.body, "{v}");
        } else {
            self.body.push_str("null");
        }
    }

    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        self.push_num(v);
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        debug_assert!(!v.contains(['"', '\\']), "plain strings only");
        self.key(k);
        let _ = write!(self.body, "\"{v}\"");
        self
    }

    pub fn nums(&mut self, k: &str, vs: &[f64]) -> &mut Self {
        self.key(k);
        self.body.push('[');
        for (i, &v) in vs.iter().enumerate() {
            if i > 0 {
                self.body.push(',');
            }
            self.push_num(v);
        }
        self.body.push(']');
        self
    }

    pub fn obj(&mut self, k: &str, o: &Obj) -> &mut Self {
        self.key(k);
        let _ = write!(self.body, "{{{}}}", o.body);
        self
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.body)
    }
}
