#ifndef TPA_LA_SHARED_ARRAY_H_
#define TPA_LA_SHARED_ARRAY_H_

#include <sys/mman.h>

#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

namespace tpa::la {

/// Immutable shared array: a (data, size) view plus a type-erased owner that
/// keeps the bytes alive.  The two ways to make one:
///  * adopt a std::vector (the historical path — the vector moves into a
///    heap holder and the view points at it), or
///  * View() over memory owned by something else entirely — an mmap'd
///    snapshot file, a parent buffer — with the owner's shared_ptr pinning
///    the mapping for as long as any view survives.
///
/// This is what lets CsrStructure / CsrMatrixT value layers alias bytes
/// straight out of a mapped snapshot instead of copying them: the kernels
/// only ever consume data()/size(), so they cannot tell (and do not care)
/// whether the array is heap- or file-backed.  Copying a SharedArray copies
/// the view and bumps the owner refcount — never the elements.
template <typename T>
class SharedArray {
 public:
  SharedArray() = default;

  /// Adopts a vector of any allocator (implicit: every legacy call site
  /// passing a std::vector keeps compiling and gains shared ownership for
  /// free).
  template <typename Alloc>
  SharedArray(std::vector<T, Alloc> vec) {
    auto holder =
        std::make_shared<const std::vector<T, Alloc>>(std::move(vec));
    data_ = holder->data();
    size_ = holder->size();
    owner_ = std::move(holder);
  }

  /// Non-owning view of [data, data + size) kept alive by `owner` (e.g. the
  /// MappedFile behind a snapshot).  The caller asserts that the memory
  /// stays valid and immutable for the owner's lifetime.
  static SharedArray View(std::shared_ptr<const void> owner, const T* data,
                          size_t size) {
    SharedArray array;
    array.owner_ = std::move(owner);
    array.data_ = data;
    array.size_ = size;
    return array;
  }

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](size_t i) const { return data_[i]; }
  const T& front() const { return data_[0]; }
  const T& back() const { return data_[size_ - 1]; }

  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  std::span<const T> span() const { return {data_, size_}; }

  /// The keep-alive handle (null for a default-constructed array).  Shared
  /// by every copy of this view.
  const std::shared_ptr<const void>& owner() const { return owner_; }

 private:
  std::shared_ptr<const void> owner_;
  const T* data_ = nullptr;
  size_t size_ = 0;
};

/// An allocator that gives every allocation anonymous pages of its own
/// (mmap) and hands them back to the system on deallocate.  For the O(m)
/// arrays of a graph build: freeing a block that glibc mapped raises its
/// mmap threshold and the trim threshold to twice that size, so later
/// blocks of the size come from the heap, and a heap top freed in smaller
/// pieces stays resident for the life of the process.
template <typename T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) {}

  T* allocate(size_t n) {
    void* addr = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (addr == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(addr);
  }
  void deallocate(T* p, size_t n) { ::munmap(p, n * sizeof(T)); }
  /// Default-initializes, so a new vector of n elements writes no page:
  /// fresh pages read zero.  Elements reused after a shrink keep their
  /// old values.
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  friend bool operator==(const PageAllocator&, const PageAllocator&) {
    return true;
  }
};

/// A vector on PageAllocator pages; a SharedArray adopts it like any other.
template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

}  // namespace tpa::la

#endif  // TPA_LA_SHARED_ARRAY_H_
