// Small-buffer-optimized callable for the event hot path.
//
// std::function heap-allocates once its capture exceeds the implementation's
// tiny inline buffer (16 bytes on libstdc++), and every Tiger event callback
// captures an actor pointer plus a few ids — enough to spill. InlineFunction
// stores callables up to kInlineBytes in place, so scheduling an event
// allocates nothing; larger (or potentially-throwing-move) callables fall
// back to a heap box, preserving std::function generality.
//
// Move-only by design: the simulator invokes each callback exactly once and
// never copies it, and move-only storage lets callbacks own move-only state
// (pooled payloads, unique_ptrs).
//
// BasicInlineFunction<void(Args...)> is the general form; InlineFunction, the
// simulator's event callback, is BasicInlineFunction<void()>. A disk read's
// completion (SimulatedDisk::Completion) takes the read's outcome.

#ifndef SRC_SIM_INLINE_FUNCTION_H_
#define SRC_SIM_INLINE_FUNCTION_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tiger {

template <typename Signature>
class BasicInlineFunction;

template <typename... Args>
class BasicInlineFunction<void(Args...)> {
 public:
  // Sized to hold the Network delivery closure (envelope + trace metadata,
  // 56 bytes) inline; anything bigger is rare and boxes.
  static constexpr size_t kInlineBytes = 64;

  BasicInlineFunction() noexcept = default;
  BasicInlineFunction(std::nullptr_t) noexcept {}  // NOLINT: mirrors std::function

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, BasicInlineFunction> &&
                                        std::is_invocable_r_v<void, D&, Args...>>>
  BasicInlineFunction(F&& f) {  // NOLINT: implicit, mirrors std::function
    if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kBoxedOps<D>;
    }
  }

  BasicInlineFunction(BasicInlineFunction&& o) noexcept { MoveFrom(o); }
  BasicInlineFunction& operator=(BasicInlineFunction&& o) noexcept {
    if (this != &o) {
      Reset();
      MoveFrom(o);
    }
    return *this;
  }
  BasicInlineFunction(const BasicInlineFunction&) = delete;
  BasicInlineFunction& operator=(const BasicInlineFunction&) = delete;
  ~BasicInlineFunction() { Reset(); }

  void operator()(Args... args) { ops_->invoke(storage_, std::forward<Args>(args)...); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  friend bool operator==(const BasicInlineFunction& f, std::nullptr_t) noexcept { return !f; }
  friend bool operator!=(const BasicInlineFunction& f, std::nullptr_t) noexcept {
    return static_cast<bool>(f);
  }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  // True when the held callable lives in the inline buffer (test hook).
  bool is_inline() const noexcept { return ops_ != nullptr && ops_->inline_storage; }

 private:
  struct Ops {
    void (*invoke)(void*, Args...);
    // Move-constructs the callable into `to` and destroys it in `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
    bool inline_storage;
  };

  template <typename D>
  static D* Held(void* s) noexcept {
    return std::launder(reinterpret_cast<D*>(s));
  }
  template <typename D>
  static D*& HeldPtr(void* s) noexcept {
    return *std::launder(reinterpret_cast<D**>(s));
  }

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* s, Args... args) { (*Held<D>(s))(std::forward<Args>(args)...); },
      [](void* from, void* to) noexcept {
        ::new (to) D(std::move(*Held<D>(from)));
        Held<D>(from)->~D();
      },
      [](void* s) noexcept { Held<D>(s)->~D(); },
      /*inline_storage=*/true,
  };

  template <typename D>
  static constexpr Ops kBoxedOps{
      [](void* s, Args... args) { (*HeldPtr<D>(s))(std::forward<Args>(args)...); },
      [](void* from, void* to) noexcept { ::new (to) D*(HeldPtr<D>(from)); },
      [](void* s) noexcept { delete HeldPtr<D>(s); },
      /*inline_storage=*/false,
  };

  void MoveFrom(BasicInlineFunction& o) noexcept {
    if (o.ops_ != nullptr) {
      ops_ = o.ops_;
      ops_->relocate(o.storage_, storage_);
      o.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

using InlineFunction = BasicInlineFunction<void()>;

}  // namespace tiger

#endif  // SRC_SIM_INLINE_FUNCTION_H_
