//! The experiment binaries' one writer to standard output.
//!
//! A reader that stops early (`exp_all | head -n 2`) closes the pipe; that
//! is not an error, so a failed write ends the process with status 0, as
//! `dexctl`'s `out!` does, instead of panicking as `print!` would.

use std::io::Write;

/// Writes `args` to standard output, exiting 0 if the write fails.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    if std::io::stdout().write_fmt(args).is_err() {
        std::process::exit(0);
    }
}

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::output::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::output::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::output::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}
