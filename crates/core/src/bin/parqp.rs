//! The `parqp` command-line tool. See [`parqp::cli`] for the commands.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parqp::cli::dispatch(&args) {
        Ok(report) => print!("{report}"),
        Err(error) => {
            eprintln!("{error}");
            std::process::exit(2);
        }
    }
}
