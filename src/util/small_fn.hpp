// Move-only callable with inline storage: std::function without the
// per-callback heap allocation.
//
// std::function's small-buffer capacity (16 bytes in libstdc++) is smaller
// than almost every capture in the event loop — a delivery lambda carrying
// a simnet Message, a periodic-timer re-arm closure — so scheduling through
// std::function costs one operator-new per event. SmallFn<Capacity> stores
// captures up to Capacity bytes inline and only falls back to the heap for
// larger ones, which the allocation budgets (test_alloc_budget) then
// catch. It is move-only, so captures can own shared_ptrs without the
// copyability tax std::function imposes.
//
// Scope: void() signature only — exactly what the Simulator schedules. Not
// a general std::function replacement.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace scion::util {

template <std::size_t Capacity>
class SmallFn {
 public:
  SmallFn() = default;
  SmallFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, SmallFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = &inline_invoke<Fn>;
      manager_ = &inline_manage<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = &heap_invoke<Fn>;
      manager_ = &heap_manage<Fn>;
    }
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void operator()() { invoke_(buf_); }

  explicit operator bool() const { return invoke_ != nullptr; }

  /// Whether captures of `F` avoid the heap fallback — lets call sites
  /// static_assert that a hot closure stays inline.
  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  enum class Op { kMoveTo, kDestroy };
  using Invoke = void (*)(unsigned char*);
  using Manager = void (*)(Op, unsigned char* self, unsigned char* dst);

  template <typename Fn>
  static void inline_invoke(unsigned char* buf) {
    (*std::launder(reinterpret_cast<Fn*>(buf)))();
  }
  template <typename Fn>
  static void inline_manage(Op op, unsigned char* self, unsigned char* dst) {
    Fn* fn = std::launder(reinterpret_cast<Fn*>(self));
    if (op == Op::kMoveTo) ::new (static_cast<void*>(dst)) Fn(std::move(*fn));
    fn->~Fn();
  }

  template <typename Fn>
  static void heap_invoke(unsigned char* buf) {
    (**std::launder(reinterpret_cast<Fn**>(buf)))();
  }
  template <typename Fn>
  static void heap_manage(Op op, unsigned char* self, unsigned char* dst) {
    Fn** slot = std::launder(reinterpret_cast<Fn**>(self));
    if (op == Op::kMoveTo) {
      ::new (static_cast<void*>(dst)) Fn*(*slot);
    } else {
      delete *slot;
    }
    // The Fn* slot itself is trivially destructible.
  }

  void move_from(SmallFn& other) noexcept {
    if (!other.invoke_) return;
    other.manager_(Op::kMoveTo, other.buf_, buf_);
    invoke_ = other.invoke_;
    manager_ = other.manager_;
    other.invoke_ = nullptr;
    other.manager_ = nullptr;
  }

  void reset() noexcept {
    if (!invoke_) return;
    manager_(Op::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manager_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  Invoke invoke_{nullptr};
  Manager manager_{nullptr};
};

}  // namespace scion::util
