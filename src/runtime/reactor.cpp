#include "runtime/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>

#include "util/logging.h"

namespace sweb::runtime {

Epoller::Epoller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (!epfd_.valid()) {
    throw std::system_error(errno, std::generic_category(), "epoll_create1");
  }
}

bool Epoller::add(int fd, std::uint32_t events, std::uint64_t tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  return ::epoll_ctl(epfd_.get(), EPOLL_CTL_ADD, fd, &ev) == 0;
}

void Epoller::remove(int fd) noexcept {
  ::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

int Epoller::wait(std::vector<Event>& out, std::chrono::milliseconds timeout) {
  epoll_event events[64];
  const int n = ::epoll_wait(epfd_.get(), events, 64,
                             static_cast<int>(timeout.count()));
  if (n <= 0) return 0;  // timeout, or EINTR — caller re-checks its token
  for (int i = 0; i < n; ++i) {
    out.push_back(Event{events[i].data.u64, events[i].events});
  }
  return n;
}

WakeFd::WakeFd() : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  if (!fd_.valid()) {
    throw std::system_error(errno, std::generic_category(), "eventfd");
  }
}

void WakeFd::notify() noexcept {
  const std::uint64_t one = 1;
  // A full counter (EAGAIN) already guarantees a pending wake; nothing to do.
  [[maybe_unused]] const ssize_t n = ::write(fd_.get(), &one, sizeof one);
}

void WakeFd::drain() noexcept {
  std::uint64_t count = 0;
  [[maybe_unused]] const ssize_t n = ::read(fd_.get(), &count, sizeof count);
}

CgiPool::CgiPool(int threads, WakeFd& wake)
    : threads_(threads < 1 ? 1 : threads), wake_(wake) {}

CgiPool::~CgiPool() { stop(); }

void CgiPool::start() {
  if (!workers_.empty()) return;
  workers_.reserve(static_cast<std::size_t>(threads_));
  for (int w = 0; w < threads_; ++w) {
    workers_.emplace_back([this, w](const std::stop_token& token) {
      worker_loop(token, w);
    });
  }
}

void CgiPool::stop() {
  for (auto& worker : workers_) worker.request_stop();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  const std::lock_guard<std::mutex> lock(mutex_);
  jobs_.clear();
}

void CgiPool::submit(Job job) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
}

std::vector<CgiPool::Result> CgiPool::drain_results() {
  std::vector<Result> out;
  const std::lock_guard<std::mutex> lock(results_mutex_);
  out.swap(results_);
  return out;
}

void CgiPool::worker_loop(const std::stop_token& token, int index) {
  util::set_thread_log_context("cgi/w" + std::to_string(index));
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!cv_.wait(lock, token, [this] { return !jobs_.empty(); })) {
        break;  // stop requested while idle
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    Result result;
    result.conn_id = job.conn_id;
    result.response = job.run();
    {
      const std::lock_guard<std::mutex> lock(results_mutex_);
      results_.push_back(std::move(result));
    }
    wake_.notify();
  }
  util::set_thread_log_context({});
}

}  // namespace sweb::runtime
