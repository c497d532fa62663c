// Move-only callable with small-buffer inline storage.
//
// The simulator schedules hundreds of millions of events per run, and nearly every event
// closure is tiny — a `this` pointer plus two or three scalars. std::function heap-allocates
// once its (implementation-defined, typically 16-byte) inline buffer overflows, which makes
// the event hot path malloc-bound. InlineFunction stores any nothrow-movable callable of up
// to kInlineBytes bytes directly in the object; larger callables fall back to a single heap
// allocation, exactly like std::function, so correctness never depends on the capture size.
//
// Unlike std::function it is move-only (no copy, so captures can own resources). The
// signature defaults to `void()`, the event loop's closure; transfer continuations take
// their outcome as an argument (`InlineFunction<32, void(TransferOutcome)>`).
#ifndef HARMONY_SRC_UTIL_INLINE_FUNCTION_H_
#define HARMONY_SRC_UTIL_INLINE_FUNCTION_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace harmony {

template <std::size_t kInlineBytes, typename Signature = void()>
class InlineFunction;

template <std::size_t kInlineBytes, typename R, typename... Args>
class InlineFunction<kInlineBytes, R(Args...)> {
  static_assert(kInlineBytes >= sizeof(void*), "buffer must at least hold a pointer");

 public:
  // True when a callable of type F is stored in the inline buffer (no allocation). Exposed
  // so tests — and size-sensitive callers — can assert their captures stay inline.
  template <typename F>
  static constexpr bool kStoredInline = sizeof(std::decay_t<F>) <= kInlineBytes &&
                                        alignof(std::decay_t<F>) <= alignof(void*) &&
                                        std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  InlineFunction() = default;

  // Implicit by design, mirroring std::function: call sites pass lambdas directly.
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFunction> &&
                                        std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (kStoredInline<F>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      invoke_ = [](void* buf, Args... args) -> R {
        return (*Stored<D>(buf))(std::forward<Args>(args)...);
      };
      manage_ = [](Op op, void* self, void* other) {
        switch (op) {
          case Op::kDestroy:
            Stored<D>(self)->~D();
            break;
          case Op::kMoveFrom: {
            D* source = Stored<D>(other);
            ::new (self) D(std::move(*source));
            source->~D();
            break;
          }
        }
      };
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(fn)));
      invoke_ = [](void* buf, Args... args) -> R {
        return (**Stored<D*>(buf))(std::forward<Args>(args)...);
      };
      manage_ = [](Op op, void* self, void* other) {
        switch (op) {
          case Op::kDestroy:
            delete *Stored<D*>(self);
            break;
          case Op::kMoveFrom:
            // Ownership transfers with the pointer; nothing to destroy in `other`.
            ::new (self) D*(*Stored<D*>(other));
            break;
        }
      };
    }
  }

  InlineFunction(InlineFunction&& other) noexcept
      : invoke_(other.invoke_), manage_(other.manage_) {
    if (manage_ != nullptr) {
      manage_(Op::kMoveFrom, buf_, other.buf_);
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      invoke_ = other.invoke_;
      manage_ = other.manage_;
      if (manage_ != nullptr) {
        manage_(Op::kMoveFrom, buf_, other.buf_);
      }
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  void Reset() {
    if (manage_ != nullptr) {
      manage_(Op::kDestroy, buf_, nullptr);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  explicit operator bool() const { return invoke_ != nullptr; }

  // Calling an empty InlineFunction is undefined, like std::function without the throw.
  R operator()(Args... args) { return invoke_(buf_, std::forward<Args>(args)...); }

 private:
  enum class Op { kDestroy, kMoveFrom };

  template <typename T>
  static T* Stored(void* buf) {
    return std::launder(reinterpret_cast<T*>(buf));
  }

  R (*invoke_)(void*, Args...) = nullptr;
  void (*manage_)(Op, void*, void*) = nullptr;
  alignas(void*) unsigned char buf_[kInlineBytes];
};

}  // namespace harmony

#endif  // HARMONY_SRC_UTIL_INLINE_FUNCTION_H_
