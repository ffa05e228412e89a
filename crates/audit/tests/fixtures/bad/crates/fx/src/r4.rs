//! layout-math fixture: unchecked layout arithmetic (in scope via audit.toml).
pub fn end_offset(offset: usize, size: usize) -> usize {
    offset + size
}
pub fn align_down(offset: usize, align: usize) -> usize {
    offset & !(align - 1)
}
pub fn area(count: usize, size: usize) -> usize {
    count * size
}
