#include "device/command_queue.h"

#include <exception>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace atlas::device {
namespace {

obs::Gauge& queue_depth() {
  static obs::Gauge& g = obs::gauge(obs::names::kDeviceQueueDepth);
  return g;
}

}  // namespace

CommandQueue::CommandQueue(ThreadPool& pool, int num_exec_tokens,
                           int num_buffer_tokens)
    : pool_(pool) {
  ATLAS_CHECK_ARG(num_exec_tokens >= 1 && num_buffer_tokens >= 1,
                  "CommandQueue needs at least one token per domain, got "
                      << num_exec_tokens << " exec / " << num_buffer_tokens
                      << " buffer");
  pending_exec_.assign(static_cast<std::size_t>(num_exec_tokens), 0);
  pending_buf_.assign(static_cast<std::size_t>(num_buffer_tokens), 0);
  worker_ = std::thread([this] { worker_loop(); });
}

CommandQueue::~CommandQueue() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  worker_.join();
  // The worker exits only with an empty queue; launches it dispatched
  // may still be running on the pool — wait them out so the buffers
  // they capture die before the executor's state does.
  MutexLock lock(mu_);
  cv_state_.wait(mu_, [this]() ATLAS_REQUIRES(mu_) {
    return pending_total_ == 0;
  });
}

void CommandQueue::push(Command cmd) {
  {
    MutexLock lock(mu_);
    ATLAS_CHECK(!stop_, "enqueue on a stopping CommandQueue");
    queue_.push(std::move(cmd));
  }
  queue_depth().add(1);
  cv_work_.notify_one();
}

void CommandQueue::enqueue_h2d(DeviceBuffer buf, const Amp* host_src,
                               std::size_t bytes, int buffer_token) {
  Command cmd;
  cmd.kind = Command::Kind::H2D;
  cmd.buf = std::move(buf);
  cmd.host_src = host_src;
  cmd.bytes = bytes;
  cmd.buffer_token = buffer_token;
  push(std::move(cmd));
}

void CommandQueue::enqueue_d2h(DeviceBuffer buf, Amp* host_dst,
                               std::size_t bytes, int buffer_token) {
  Command cmd;
  cmd.kind = Command::Kind::D2H;
  cmd.buf = std::move(buf);
  cmd.host_dst = host_dst;
  cmd.bytes = bytes;
  cmd.buffer_token = buffer_token;
  push(std::move(cmd));
}

void CommandQueue::enqueue_launch(std::function<void()> fn, int exec_token,
                                  int buffer_token) {
  Command cmd;
  cmd.kind = Command::Kind::Launch;
  cmd.fn = std::move(fn);
  cmd.exec_token = exec_token;
  cmd.buffer_token = buffer_token;
  push(std::move(cmd));
}

void CommandQueue::enqueue_barrier() {
  Command cmd;
  cmd.kind = Command::Kind::Barrier;
  push(std::move(cmd));
}

void CommandQueue::sync() {
  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    cv_state_.wait(mu_, [this]() ATLAS_REQUIRES(mu_) {
      return queue_.empty() && !worker_busy_ && pending_total_ == 0;
    });
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void CommandQueue::record_error(std::exception_ptr error) {
  if (!first_error_) first_error_ = std::move(error);
}

void CommandQueue::finish_launch(int exec_token, int buffer_token,
                                 std::exception_ptr error) {
  queue_depth().add(-1);
  MutexLock lock(mu_);
  --pending_exec_[static_cast<std::size_t>(exec_token)];
  --pending_buf_[static_cast<std::size_t>(buffer_token)];
  --pending_total_;
  if (error) record_error(std::move(error));
  // Notify while still holding mu_. The destructor (and sync() callers
  // that tear the queue down right after) free this object the moment
  // pending_total_ hits zero, and their waiter cannot recheck that
  // predicate until mu_ is released — so notifying under the lock is
  // what keeps this pool-thread callback from touching a freed condvar
  // when two launches finish back-to-back during teardown.
  cv_state_.notify_all();
}

void CommandQueue::run_command(Command& cmd) {
  switch (cmd.kind) {
    case Command::Kind::H2D: {
      {
        // The modeled DMA engine: wait for the launch reading this slot
        // (other slots' copies and every launch proceed meanwhile).
        MutexLock lock(mu_);
        const std::size_t b = static_cast<std::size_t>(cmd.buffer_token);
        cv_state_.wait(mu_, [this, b]() ATLAS_REQUIRES(mu_) {
          return pending_buf_[b] == 0;
        });
      }
      try {
        obs::TraceSpan span(obs::names::kSpanDeviceH2D, cmd.buffer_token);
        cmd.buf.upload(cmd.host_src, cmd.bytes);
      } catch (...) {
        MutexLock lock(mu_);
        record_error(std::current_exception());
      }
      queue_depth().add(-1);
      break;
    }
    case Command::Kind::D2H: {
      {
        MutexLock lock(mu_);
        const std::size_t b = static_cast<std::size_t>(cmd.buffer_token);
        cv_state_.wait(mu_, [this, b]() ATLAS_REQUIRES(mu_) {
          return pending_buf_[b] == 0;
        });
      }
      try {
        obs::TraceSpan span(obs::names::kSpanDeviceD2H, cmd.buffer_token);
        cmd.buf.download(cmd.host_dst, cmd.bytes);
      } catch (...) {
        MutexLock lock(mu_);
        record_error(std::current_exception());
      }
      queue_depth().add(-1);
      break;
    }
    case Command::Kind::Launch: {
      {
        // One kernel at a time per modeled GPU — but the launch runs on
        // the pool, so the worker is free to start the next slot's H2D
        // the moment this dispatch lands: that gap is the overlap.
        MutexLock lock(mu_);
        const std::size_t g = static_cast<std::size_t>(cmd.exec_token);
        cv_state_.wait(mu_, [this, g]() ATLAS_REQUIRES(mu_) {
          return pending_exec_[g] == 0;
        });
        ++pending_exec_[g];
        ++pending_buf_[static_cast<std::size_t>(cmd.buffer_token)];
        ++pending_total_;
      }
      static obs::Counter& launches =
          obs::counter(obs::names::kDeviceLaunches);
      launches.inc();
      auto task = [this, fn = std::move(cmd.fn), g = cmd.exec_token,
                   b = cmd.buffer_token]() mutable {
        std::exception_ptr error;
        try {
          obs::TraceSpan span(obs::names::kSpanDeviceLaunch, g);
          fn();
        } catch (...) {
          error = std::current_exception();
        }
        // Drop the buffers fn captured before reporting the launch
        // done: the pool destroys this task only after it returns,
        // which can be after the queue's destructor has stopped
        // waiting and the staging pool is gone.
        fn = nullptr;
        finish_launch(g, b, std::move(error));
      };
      try {
        pool_.submit(task);
      } catch (const Error&) {
        // Pool draining (session teardown): degrade to inline replay so
        // the queue still drains deterministically.
        task();
      }
      break;
    }
    case Command::Kind::Barrier: {
      MutexLock lock(mu_);
      cv_state_.wait(mu_, [this]() ATLAS_REQUIRES(mu_) {
        return pending_total_ == 0;
      });
      queue_depth().add(-1);
      break;
    }
  }
}

void CommandQueue::worker_loop() {
  for (;;) {
    Command cmd;
    {
      MutexLock lock(mu_);
      cv_work_.wait(mu_, [this]() ATLAS_REQUIRES(mu_) {
        return stop_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // stop_ set and fully drained
      cmd = std::move(queue_.front());
      queue_.pop();
      worker_busy_ = true;
    }
    run_command(cmd);
    {
      MutexLock lock(mu_);
      worker_busy_ = false;
    }
    cv_state_.notify_all();
  }
}

}  // namespace atlas::device
