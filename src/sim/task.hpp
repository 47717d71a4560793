// C++20 coroutine support for processor programs.
//
// A simulated processor's "program" (a workload, a lock algorithm, a test
// scenario) is written as an ordinary coroutine returning sim::Task:
//
//   sim::Task worker(core::Processor& p) {
//     co_await p.compute(10);
//     Word v = co_await p.read(addr);
//     co_await p.write_global(addr, v + 1);
//   }
//
// Tasks are lazily started (initial_suspend is suspend_always) so that a
// Machine can construct all programs and then kick them off at tick 0.
// Awaiting a sub-task uses symmetric transfer; completion of an asynchronous
// hardware request resumes the coroutine through its node's outstanding-
// operation record (core::OpAwaiter), directly inside the completing event
// (so resumption happens at exactly the right tick).
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "sim/simulator.hpp"
#include "sim/types.hpp"

namespace bcsim::sim {

/// A lazily-started coroutine task with void result.
class Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    std::coroutine_handle<> continuation{};
    bool finished = false;
    std::exception_ptr exception{};

    Task get_return_object() { return Task(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) const noexcept {
        h.promise().finished = true;
        if (auto cont = h.promise().continuation) return cont;
        return std::noop_coroutine();
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { exception = std::current_exception(); }
  };

  Task() noexcept = default;
  explicit Task(Handle h) noexcept : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  /// Begins execution (runs until the first suspension point). Top-level
  /// tasks only; awaited sub-tasks are started by the awaiter.
  void start() { h_.resume(); }

  [[nodiscard]] bool valid() const noexcept { return h_ != nullptr; }
  [[nodiscard]] bool done() const noexcept { return h_ && h_.promise().finished; }

  /// Re-raises an exception that escaped a fire-and-forget task. Call after
  /// the simulation loop returns; a silently swallowed failure would make a
  /// broken experiment look like a slow one.
  void rethrow_if_failed() const {
    if (h_ && h_.promise().exception) std::rethrow_exception(h_.promise().exception);
  }

  /// Awaiting a task: starts it, suspends the parent, resumes the parent
  /// when the task finishes (symmetric transfer, no stack growth).
  auto operator co_await() const noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return !h || h.promise().finished; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) const noexcept {
        h.promise().continuation = parent;
        return h;
      }
      void await_resume() const {
        if (h && h.promise().exception) std::rethrow_exception(h.promise().exception);
      }
    };
    return Awaiter{h_};
  }

 private:
  void destroy() noexcept {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  Handle h_ = nullptr;
};

/// Awaitable that suspends the coroutine for `dt` simulated cycles.
[[nodiscard]] inline auto delay(Simulator& sim, Tick dt) {
  struct Awaiter {
    Simulator& sim;
    Tick dt;
    bool await_ready() const noexcept { return dt == 0; }
    void await_suspend(std::coroutine_handle<> h) const {
      sim.schedule(dt, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };
  return Awaiter{sim, dt};
}

}  // namespace bcsim::sim
