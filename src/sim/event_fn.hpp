// Small-buffer callable for simulation events.
//
// EventFn replaces std::function<void()> on the kernel's hottest path. The
// simulator fires tens of millions of events per host second; std::function
// heap-allocates any capture over its (implementation-defined, ~16-byte)
// small-object threshold, and the network's delivery closures used to carry
// a whole net::Message that way — one malloc/free per message. EventFn
// stores captures up to kInlineBytes in place (48 bytes: six pointers, or a
// bound completion callback plus a word), relocates with a single indirect
// call, and falls back to one heap cell only for oversized or
// throwing-move callables.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace bcsim::sim {

/// Move-only type-erased void() callable with inline storage.
class EventFn {
 public:
  /// Captures up to this many bytes (with at most pointer alignment) are
  /// stored inline; anything larger lives in a single heap cell.
  static constexpr std::size_t kInlineBytes = 48;

  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    emplace<std::decay_t<F>>(std::forward<F>(f));
  }

  EventFn(EventFn&& o) noexcept : vt_(o.vt_) {
    if (vt_ != nullptr) {
      relocate_from(o);
      o.vt_ = nullptr;
    }
  }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      vt_ = o.vt_;
      if (vt_ != nullptr) {
        relocate_from(o);
        o.vt_ = nullptr;
      }
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept { return vt_ != nullptr; }

  /// Invokes the callable. Precondition: non-empty (events are fired
  /// exactly once, straight out of the queue).
  void operator()() { vt_->call(buf_); }

 private:
  struct VTable {
    void (*call)(void*);
    /// Move-constructs into dst from src and destroys src (dst is raw).
    /// nullptr means "memcpy the buffer" — most captures are a few
    /// pointers, and skipping the indirect call matters: the event queue's
    /// node pool relocates events on growth and hands one out on every pop.
    void (*relocate)(void* dst, void* src) noexcept;
    /// nullptr means "trivially destructible" for the same reason.
    void (*destroy)(void*) noexcept;
  };

  template <typename F>
  void emplace(F f) {
    if constexpr (sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
                  std::is_trivially_copyable_v<F> && std::is_trivially_destructible_v<F>) {
      ::new (static_cast<void*>(buf_)) F(std::move(f));
      static constexpr VTable vt = {
          [](void* p) { (*std::launder(reinterpret_cast<F*>(p)))(); },
          nullptr,
          nullptr,
      };
      vt_ = &vt;
    } else if constexpr (sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
                         std::is_nothrow_move_constructible_v<F>) {
      ::new (static_cast<void*>(buf_)) F(std::move(f));
      static constexpr VTable vt = {
          [](void* p) { (*std::launder(reinterpret_cast<F*>(p)))(); },
          [](void* dst, void* src) noexcept {
            F* s = std::launder(reinterpret_cast<F*>(src));
            ::new (dst) F(std::move(*s));
            s->~F();
          },
          [](void* p) noexcept { std::launder(reinterpret_cast<F*>(p))->~F(); },
      };
      vt_ = &vt;
    } else {
      ::new (static_cast<void*>(buf_)) F*(new F(std::move(f)));
      static constexpr VTable vt = {
          [](void* p) { (**std::launder(reinterpret_cast<F**>(p)))(); },
          [](void* dst, void* src) noexcept {
            ::new (dst) F*(*std::launder(reinterpret_cast<F**>(src)));
          },
          [](void* p) noexcept { delete *std::launder(reinterpret_cast<F**>(p)); },
      };
      vt_ = &vt;
    }
  }

  void relocate_from(EventFn& o) noexcept {
    if (vt_->relocate != nullptr) {
      vt_->relocate(buf_, o.buf_);
    } else {
      // Copies the whole buffer even when the stored object is smaller —
      // a fixed-size memcpy beats a size load + variable copy, and reading
      // the uninitialized tail of a byte array is harmless (GCC flags it
      // as maybe-uninitialized anyway).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
      std::memcpy(buf_, o.buf_, kInlineBytes);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    }
  }

  void reset() noexcept {
    if (vt_ != nullptr) {
      if (vt_->destroy != nullptr) vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(void*) std::byte buf_[kInlineBytes];
};

}  // namespace bcsim::sim
