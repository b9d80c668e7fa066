//! Fixture: lock-order rule, against a manifest declaring `self.first`
//! rank 10 and `self.second` rank 20 for this file.

pub struct Pair {
    first: std::sync::Mutex<u32>,
    second: std::sync::Mutex<u32>,
    rogue: std::sync::Mutex<u32>,
}

impl Pair {
    pub fn documented_order(&self) {
        let a = self.first.lock();
        let b = self.second.lock(); // ranks ascend: fine
        drop(b);
        drop(a);
    }

    pub fn inverted_order(&self) {
        let b = self.second.lock();
        let a = self.first.lock(); // line 20: rank 10 under rank 20
        drop(a);
        drop(b);
    }

    pub fn undeclared_under_guard(&self) {
        let a = self.first.lock();
        let r = self.rogue.lock(); // line 27: undeclared receiver while a guard is held
        drop(r);
        drop(a);
    }

    pub fn sequential_is_fine(&self) {
        let b = self.second.lock();
        drop(b);
        let a = self.first.lock(); // previous guard dropped: fine
        drop(a);
    }
}
