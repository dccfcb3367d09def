// Move-only small-buffer callable for the event engine's hot path.
//
// std::function costs one heap allocation per stored closure plus a copy-
// constructible requirement that forces shared_ptr wrappers around move-only
// captures. The simulator schedules hundreds of thousands of closures per
// benchmark run, so both costs are paid on every event. MoveFunc stores the
// common capture sizes inline in the event slab slot; closures too large for
// the inline buffer fall back to a size-class pool: a freed block parks on
// its class's freelist and serves the next closure of that class, so the
// steady stream of large reply closures stops reaching operator new (C7's
// allocs_per_txn rises by half without it) and hot blocks stay
// cache-resident. The engine runs on one thread, so one process-wide pool
// needs no locks.
//
// MoveFunc is move-only by design: the engine moves each callback exactly
// once (slab slot -> stack) before invoking it, and move-only storage lets
// callers capture move-only state (response payloads, reply continuations)
// without refcounting detours.

#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace aurora::sim {

namespace detail {

/// Size-class granularity and class count for pooled closure blocks:
/// 64, 128, ..., 512 bytes. Larger closures use the global allocator.
inline constexpr size_t kPoolGranule = 64;
inline constexpr size_t kPoolClasses = 8;

/// Freelists of closure blocks, one per size class. The destructor frees
/// parked blocks so sanitized runs see no leaked memory at exit.
struct ClosurePool {
  std::array<std::vector<void*>, kPoolClasses> free_lists;

  ~ClosurePool() {
    for (auto& list : free_lists) {
      for (void* block : list) ::operator delete(block);
    }
  }
};

inline ClosurePool& Pool() {
  static ClosurePool pool;
  return pool;
}

inline void* PoolAlloc(size_t bytes) {
  if (bytes > kPoolGranule * kPoolClasses) return ::operator new(bytes);
  const size_t cls = (bytes + kPoolGranule - 1) / kPoolGranule - 1;
  auto& list = Pool().free_lists[cls];
  if (!list.empty()) {
    void* block = list.back();
    list.pop_back();
    return block;
  }
  return ::operator new((cls + 1) * kPoolGranule);
}

inline void PoolFree(void* block, size_t bytes) {
  if (bytes > kPoolGranule * kPoolClasses) {
    ::operator delete(block);
    return;
  }
  const size_t cls = (bytes + kPoolGranule - 1) / kPoolGranule - 1;
  Pool().free_lists[cls].push_back(block);
}

}  // namespace detail

template <typename Sig, size_t InlineBytes = 120>
class MoveFunc;

template <typename R, typename... Args, size_t InlineBytes>
class MoveFunc<R(Args...), InlineBytes> {
 public:
  MoveFunc() = default;

  // NOLINTNEXTLINE(google-explicit-constructor): callables convert freely,
  // like std::function, so every Schedule(..., [] {...}) site keeps working.
  template <typename F, typename D = std::remove_cvref_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, MoveFunc> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  MoveFunc(F&& f) {
    if constexpr (sizeof(D) <= InlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &InlineModel<D>::ops;
    } else {
      void* block = detail::PoolAlloc(sizeof(D));
      D* obj = ::new (block) D(std::forward<F>(f));
      std::memcpy(storage_, &obj, sizeof(obj));
      ops_ = &HeapModel<D>::ops;
    }
  }

  MoveFunc(MoveFunc&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  MoveFunc& operator=(MoveFunc&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  MoveFunc(const MoveFunc&) = delete;
  MoveFunc& operator=(const MoveFunc&) = delete;

  ~MoveFunc() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    assert(ops_ != nullptr);
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    /// Move-constructs into `dst` and destroys `src` (heap-stored targets
    /// just carry the pointer over). Must not throw: the engine relies on
    /// noexcept relocation when the slab vector grows.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename F>
  static F* InlineTarget(void* storage) {
    return std::launder(reinterpret_cast<F*>(storage));
  }

  template <typename F>
  struct InlineModel {
    static R Invoke(void* storage, Args&&... args) {
      return (*InlineTarget<F>(storage))(std::forward<Args>(args)...);
    }
    static void Relocate(void* dst, void* src) {
      ::new (dst) F(std::move(*InlineTarget<F>(src)));
      InlineTarget<F>(src)->~F();
    }
    static void Destroy(void* storage) { InlineTarget<F>(storage)->~F(); }
    static constexpr Ops ops = {&Invoke, &Relocate, &Destroy};
  };

  template <typename F>
  struct HeapModel {
    static F* Target(void* storage) {
      F* obj;
      std::memcpy(&obj, storage, sizeof(obj));
      return obj;
    }
    static R Invoke(void* storage, Args&&... args) {
      return (*Target(storage))(std::forward<Args>(args)...);
    }
    static void Relocate(void* dst, void* src) {
      std::memcpy(dst, src, sizeof(F*));
    }
    static void Destroy(void* storage) {
      F* obj = Target(storage);
      obj->~F();
      detail::PoolFree(obj, sizeof(F));
    }
    static constexpr Ops ops = {&Invoke, &Relocate, &Destroy};
  };

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[InlineBytes];
  const Ops* ops_ = nullptr;
};

/// The engine's event callback: runs once, then the slot is recycled.
using SimCallback = MoveFunc<void()>;

}  // namespace aurora::sim
