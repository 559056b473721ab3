#pragma once

/// \file callback.hpp
/// Non-allocating callable wrapper for the simulation hot path.
///
/// Every timed behaviour in sccpipe is a callback on the event queue, and a
/// full sweep dispatches millions of them. `std::function` heap-allocates
/// any capture bigger than its tiny SBO buffer, so the old event engine
/// paid an allocation (and a cache-missing indirect call) per scheduled
/// continuation. `InplaceFunction` stores the callable inline in a
/// fixed-size buffer instead:
///
///  * capacity is a compile-time template parameter, **statically
///    asserted** on construction — an oversized capture is a compile
///    error, never a silent heap fallback;
///  * move-only (no copies of captured state, matching how continuations
///    actually flow through the pipeline);
///  * one pointer of overhead to a static ops table (invoke / relocate /
///    destroy), generated per erased type;
///  * trivially-copyable captures (the normal case on the hot path: POD
///    context structs, handles, indices) relocate by plain memcpy and skip
///    the destroy call entirely — no indirect call on move or drop.
///
/// Capacities form a tower: a wrapper that captures a callback of the
/// tier below plus a few words of context must itself fit its own tier.
/// The constants below encode that arithmetic; the static_asserts keep it
/// honest when captures grow.

#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

namespace sccpipe {

template <typename Signature, std::size_t Capacity>
class InplaceFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity> {
 public:
  InplaceFunction() = default;
  InplaceFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::remove_cvref_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InplaceFunction> &&
                !std::is_same_v<D, std::nullptr_t> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InplaceFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  InplaceFunction(InplaceFunction&& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      relocate_from(other);
    }
  }

  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        ops_ = other.ops_;
        relocate_from(other);
      }
    }
    return *this;
  }

  InplaceFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  /// Build \p f directly in this wrapper's buffer, destroying whatever it
  /// held first: the callable is constructed once, where it will run. An
  /// InplaceFunction of this same type is moved in rather than nested.
  template <typename F, typename D = std::remove_cvref_t<F>>
  void emplace(F&& f) {
    if constexpr (std::is_same_v<D, InplaceFunction>) {
      *this = std::forward<F>(f);
    } else {
      static_assert(std::is_invocable_r_v<R, D&, Args...>,
                    "callable has the wrong signature");
      static_assert(sizeof(D) <= Capacity,
                    "callable capture exceeds InplaceFunction capacity — "
                    "shrink the capture (pack context into a struct, capture "
                    "indices instead of fat objects) or raise the tier");
      static_assert(alignof(D) <= alignof(std::max_align_t),
                    "over-aligned callable");
      static_assert(std::is_nothrow_move_constructible_v<D>,
                    "callable must be nothrow-move-constructible (moving an "
                    "InplaceFunction relocates it)");
      reset();
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kOps<D>;
    }
  }

  ~InplaceFunction() { reset(); }

  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return ops_ != nullptr; }
  friend bool operator==(const InplaceFunction& f, std::nullptr_t) {
    return f.ops_ == nullptr;
  }
  friend bool operator!=(const InplaceFunction& f, std::nullptr_t) {
    return f.ops_ != nullptr;
  }

  static constexpr std::size_t capacity() { return Capacity; }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* dst, void* src);  // move-construct dst, destroy src
    void (*destroy)(void*);
    /// sizeof the callable when it is trivially copyable and destructible
    /// (the fast path: memcpy relocation, no destroy), 0 otherwise.
    std::size_t trivial_size;
  };

  template <typename D>
  static constexpr Ops kOps{
      [](void* p, Args&&... args) -> R {
        return (*static_cast<D*>(p))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) {
        D* s = static_cast<D*>(src);
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* p) { static_cast<D*>(p)->~D(); },
      std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>
          ? sizeof(D)
          : 0,
  };

  /// Precondition: ops_ already copied from \p other, other.ops_ != nullptr.
  void relocate_from(InplaceFunction& other) noexcept {
    if (const std::size_t n = ops_->trivial_size; n != 0) {
      std::memcpy(buf_, other.buf_, n);
    } else {
      ops_->relocate(buf_, other.buf_);
    }
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->trivial_size == 0) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[Capacity];
};

/// Capacity tower (bytes of inline capture storage). Each tier must hold a
/// callback object of the tier below (capacity + one ops pointer + padding)
/// plus the capturing lambda's own context words; the chain is
///
///   MPB put/get continuations
///     -> chip compute/dram continuations (stage callbacks)
///       -> memory-system bulk continuations
///         -> fair-share flow completions
///           -> the Simulator event queue itself.
///
/// The mesh fabric adds no tier: a located hop hands the caller's callable
/// straight to the Simulator, which builds it in its event slot.
inline constexpr std::size_t kMpbCallbackBytes = 104;
inline constexpr std::size_t kStageCallbackBytes = 160;
inline constexpr std::size_t kMemCallbackBytes = 192;
inline constexpr std::size_t kFlowCallbackBytes = 224;
inline constexpr std::size_t kHostPushCallbackBytes = 120;
inline constexpr std::size_t kHostPopCallbackBytes = 120;
inline constexpr std::size_t kSimCallbackBytes = 256;

/// The continuation type of the timed-execution façade (chip compute /
/// memory walks / DRAM streams / host compute). Fits every pipeline-stage
/// lambda inline; anything bigger is a compile error.
using StageCallback = InplaceFunction<void(), kStageCallbackBytes>;

/// The Simulator's event callback — the outermost tier.
using SimCallback = InplaceFunction<void(), kSimCallbackBytes>;

/// True for every InplaceFunction instantiation: the one kind of callable
/// that can be empty, so the Simulator CHECKs it before scheduling.
template <typename T>
inline constexpr bool kIsInplaceFunction = false;
template <typename Signature, std::size_t Capacity>
inline constexpr bool kIsInplaceFunction<InplaceFunction<Signature, Capacity>> =
    true;

}  // namespace sccpipe
