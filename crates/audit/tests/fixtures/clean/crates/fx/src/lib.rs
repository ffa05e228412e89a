//! Clean fixture: everything checked, allowlisted, or inline-allowed.
pub fn end(offset: usize, size: usize) -> Option<usize> {
    offset.checked_add(size)
}
pub fn next(len: usize) -> usize {
    len + 1
}
pub fn double(bytes: usize) -> usize {
    // audit:allow(layout-math): fixture exercises inline allows
    bytes * 2
}
